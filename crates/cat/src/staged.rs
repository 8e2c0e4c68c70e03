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
//! 3. **Incremental execution** ([`StagedState`]): one state per
//!    session. It mirrors `rf`/`co` and the derived `fr` per pushed edge,
//!    re-evaluates only the rf/co-dependent *frontier* of bindings, and
//!    diffs each staged constraint's value against its previous value —
//!    monotonicity makes the diff exactly the edge delta. `acyclic`
//!    constraints feed their delta into a per-constraint
//!    [`IncrementalOrder`] (journal + LIFO undo, zero full Kahn
//!    traversals per simulation); `irreflexive` tracks the value's
//!    diagonal; `empty` reads the value's edge count. Verdicts at DFS
//!    nodes *and* leaves are O(#constraints).
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

use crate::ast::{CatExpr, CatProgram, CatStmt, CheckKind};
use crate::eval::{
    base_syms, check_holds, eval_expr, eval_let_group, set_slot, CatValue, Env, EnvBase,
};
use crate::monotone::{classify_let_group, expr_dep, Dep, DepMap};
use std::collections::HashSet;
use telechat_common::{Error, EventId, Result, Sym};
use telechat_exec::{EventSet, Execution, IncrementalOrder, PartialVerdict, Relation, Verdict};

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
    /// rf/co/fr-dependent `let` group. `frontier`: re-evaluated per pushed
    /// edge (needed by a staged constraint). `leaf`: evaluated during the
    /// leaf walk (needed by a residual check or flag). Neither: dead code,
    /// never evaluated.
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
    /// Indices of `BindDyn { frontier: true }` steps, in order.
    frontier_steps: Vec<usize>,
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
    match e {
        CatExpr::Name(n) => {
            out.insert(n.id());
        }
        CatExpr::Union(a, b)
        | CatExpr::Inter(a, b)
        | CatExpr::Diff(a, b)
        | CatExpr::Seq(a, b)
        | CatExpr::Cross(a, b) => {
            collect_names(a, out);
            collect_names(b, out);
        }
        CatExpr::Opt(a)
        | CatExpr::Plus(a)
        | CatExpr::Star(a)
        | CatExpr::Inverse(a)
        | CatExpr::IdOn(a)
        | CatExpr::Domain(a)
        | CatExpr::Range(a) => collect_names(a, out),
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
/// other `let` — makes the plan unstageable: the staged executor
/// evaluates the whole binding frontier before the constraint
/// expressions, so an earlier constraint would observe a later rebinding
/// (and a `rf`/`co`/`fr` binding would collide with the edge mirrors).
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
        let frontier_steps = steps
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Step::BindDyn { frontier: true, .. }))
            .map(|(i, _)| i)
            .collect();
        StagedPlan {
            steps,
            constraints,
            frontier_steps,
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
// Per-combo incremental state.
// ---------------------------------------------------------------------------

/// Per-constraint runtime state.
#[derive(Debug)]
enum ConState {
    /// `value` is the constraint expression's current value (equal to a
    /// from-scratch evaluation against the current rf/co/fr, by monotone
    /// induction); the order tracks its acyclicity.
    Acyclic {
        value: Relation,
        order: IncrementalOrder,
    },
    Irreflexive {
        value: Relation,
        selfloops: u32,
    },
    Empty {
        value: Relation,
    },
    /// `empty` over a *set*-valued monotone expression (e.g.
    /// `empty domain(rf)`): element deltas instead of edge deltas.
    EmptySet {
        value: EventSet,
    },
}

impl ConState {
    fn violated(&self) -> bool {
        match self {
            ConState::Acyclic { order, .. } => !order.is_acyclic(),
            ConState::Irreflexive { selfloops, .. } => *selfloops > 0,
            ConState::Empty { value } => !value.is_empty(),
            ConState::EmptySet { value } => !value.is_empty(),
        }
    }
}

/// One undo frame (per engine push): the value delta applied to each
/// constraint.
#[derive(Debug, Default)]
struct ConsFrame {
    delta: Vec<(EventId, EventId)>,
    elems: Vec<EventId>,
    selfloops: u32,
}

/// The staged checking state of one skeleton (one per
/// [`crate::CatModel::combo_checker`] session when the plan
/// [`StagedPlan::prunes`]), shared by the combos of that skeleton.
pub struct StagedState<'a> {
    plan: &'a StagedPlan,
    /// Skeleton bindings + per-combo constants (`let`s and hoists).
    base: EnvBase,
    /// Shared dynamic slots: the rf/co/fr mirrors plus frontier binding
    /// values (updated in place per push; read through [`Env::view`]).
    slots: Vec<Option<CatValue>>,
    rf: Sym,
    co: Sym,
    fr: Sym,
    cons: Vec<ConState>,
    /// Results of constant checks/flags, by `cslot`: "holds"/"fires".
    const_results: Vec<bool>,
    /// True if some constant *check* is violated: every candidate of the
    /// combo is forbidden.
    const_violated: bool,
    frames: Vec<Vec<ConsFrame>>,
    /// Popped frames, recycled by [`StagedState::advance`] so the steady-
    /// state DFS allocates no delta vectors: the engine calls
    /// `edge_diff_into` once per push and reuses these buffers.
    spare_frames: Vec<Vec<ConsFrame>>,
    /// Reusable `fr` edge-delta buffer for [`StagedState::push_co`] /
    /// [`StagedState::pop_co`].
    fr_scratch: Vec<(EventId, EventId)>,
    nodes: usize,
}

impl<'a> StagedState<'a> {
    /// Builds the combo state: evaluates constants into the base, seeds
    /// every staged constraint from the skeleton (empty rf/co/fr).
    pub fn new(plan: &'a StagedPlan, skeleton: &Execution) -> Result<StagedState<'a>> {
        telechat_obs::add(telechat_obs::Counter::CatSessions, 1);
        let nodes = skeleton.events.len();
        let mut state = StagedState {
            plan,
            base: EnvBase::from_skeleton(skeleton),
            slots: Vec::new(),
            rf: base_syms().rf,
            co: base_syms().co,
            fr: base_syms().fr,
            cons: Vec::with_capacity(plan.constraints.len()),
            const_results: vec![false; plan.const_slots],
            const_violated: false,
            frames: Vec::new(),
            spare_frames: Vec::new(),
            fr_scratch: Vec::new(),
            nodes,
        };
        for sym in [state.rf, state.co, state.fr] {
            set_slot(
                &mut state.slots,
                sym,
                CatValue::Rel(Relation::with_nodes(nodes)),
            );
        }
        for step in &plan.steps {
            match step {
                Step::BindConst {
                    recursive,
                    bindings,
                } => state.bind_group(*recursive, bindings, true)?,
                Step::BindDyn {
                    recursive,
                    bindings,
                    frontier: true,
                    ..
                } => state.bind_group(*recursive, bindings, false)?,
                Step::BindDyn { .. } => {}
                Step::CheckConst {
                    cslot,
                    kind,
                    negated,
                    expr,
                    name,
                } => {
                    let env = Env::view(&state.base, &state.slots);
                    let v = eval_expr(expr, &env)?;
                    let holds = check_holds(*kind, *negated, &v, name)?;
                    state.const_results[*cslot] = holds;
                    if !holds {
                        state.const_violated = true;
                    }
                }
                Step::CheckStaged { idx } => {
                    let c = &plan.constraints[*idx];
                    let seed = {
                        let env = Env::view(&state.base, &state.slots);
                        eval_expr(&c.expr, &env)?
                    };
                    let con = match (c.mode, seed) {
                        (Mode::Acyclic, CatValue::Rel(value)) => ConState::Acyclic {
                            order: IncrementalOrder::new(nodes, &[&value]),
                            value,
                        },
                        (Mode::Irreflexive, CatValue::Rel(value)) => ConState::Irreflexive {
                            selfloops: diagonal_len(&value),
                            value,
                        },
                        (Mode::Empty, CatValue::Rel(value)) => ConState::Empty { value },
                        // `empty` is meaningful for sets too (`check_holds`
                        // accepts both); cardinality stages just as well.
                        (Mode::Empty, CatValue::Set(value)) => ConState::EmptySet { value },
                        (_, CatValue::Set(_)) => {
                            return Err(Error::Model(format!(
                                "{}: expected a relation, found a set",
                                c.name
                            )))
                        }
                    };
                    state.cons.push(con);
                }
                Step::CheckResidual { .. } | Step::Flag { cslot: None, .. } => {}
                Step::Flag {
                    cslot: Some(cslot),
                    kind,
                    negated,
                    expr,
                    name,
                } => {
                    let env = Env::view(&state.base, &state.slots);
                    let v = eval_expr(expr, &env)?;
                    state.const_results[*cslot] = check_holds(*kind, *negated, &v, name)?;
                }
            }
        }
        Ok(state)
    }

    /// Evaluates one `let` group into the base (`to_base`) or the shared
    /// dynamic slots. A non-recursive group writes each value straight into
    /// its slot: later bindings of the group read it there exactly as they
    /// would read a view's own layer, and stageable plans shadow no name,
    /// so the order of reads and writes is the plain evaluator's. A
    /// recursive group runs its Kleene iteration in a view and moves the
    /// fixpoint over.
    fn bind_group(
        &mut self,
        recursive: bool,
        bindings: &[(Sym, CatExpr)],
        to_base: bool,
    ) -> Result<()> {
        if !recursive {
            for (sym, expr) in bindings {
                let v = eval_expr(expr, &Env::view(&self.base, &self.slots))?;
                self.bind(*sym, v, to_base);
            }
            return Ok(());
        }
        let mut taken = {
            let mut env = Env::view(&self.base, &self.slots);
            eval_let_group(&mut env, true, bindings)?;
            env.take_slots()
        };
        for (sym, _) in bindings {
            if let Some(v) = taken.get_mut(sym.index()).and_then(Option::take) {
                self.bind(*sym, v, to_base);
            }
        }
        Ok(())
    }

    fn bind(&mut self, sym: Sym, v: CatValue, to_base: bool) {
        if to_base {
            self.base.bind(sym, v);
        } else {
            set_slot(&mut self.slots, sym, v);
        }
    }

    fn rel_mut(&mut self, sym: Sym) -> &mut Relation {
        match self.slots.get_mut(sym.index()).and_then(Option::as_mut) {
            Some(CatValue::Rel(r)) => r,
            _ => unreachable!("rf/co/fr mirrors are always bound relations"),
        }
    }

    fn rel_ref(&self, sym: Sym) -> &Relation {
        match self.slots.get(sym.index()).and_then(Option::as_ref) {
            Some(CatValue::Rel(r)) => r,
            _ => unreachable!("rf/co/fr mirrors are always bound relations"),
        }
    }

    /// The `fr` delta a coherence-chain extension induces: `fr(r, w)` for
    /// exactly the reads `r` justified by some predecessor (minus the
    /// identity-guard of [`Execution::fr`], which cannot trigger here as
    /// reads and writes are distinct events). Filled into `out` (cleared
    /// first) — the buffer is the session's `fr_scratch`, so the steady-
    /// state DFS pushes no allocations here.
    fn fill_fr_delta(&self, preds: &[EventId], w: EventId, out: &mut Vec<(EventId, EventId)>) {
        out.clear();
        let rf = self.rel_ref(self.rf);
        for &p in preds {
            for r in rf.successors(p) {
                if r != w {
                    out.push((r, w));
                }
            }
        }
    }

    /// The engine assigned `rf(w, r)`.
    pub fn push_rf(&mut self, w: EventId, r: EventId) -> Result<PartialVerdict> {
        self.rel_mut(self.rf).insert(w, r);
        self.advance()
    }

    /// Undoes the most recent [`StagedState::push_rf`].
    pub fn pop_rf(&mut self, w: EventId, r: EventId) {
        self.undo_frame();
        self.rel_mut(self.rf).remove(w, r);
    }

    /// The engine extended a coherence chain (`co(p, w)` for `p ∈ preds`).
    pub fn push_co(&mut self, preds: &[EventId], w: EventId) -> Result<PartialVerdict> {
        for &p in preds {
            self.rel_mut(self.co).insert(p, w);
        }
        let mut scratch = std::mem::take(&mut self.fr_scratch);
        self.fill_fr_delta(preds, w, &mut scratch);
        for &(r, w) in &scratch {
            self.rel_mut(self.fr).insert(r, w);
        }
        self.fr_scratch = scratch;
        self.advance()
    }

    /// Undoes the most recent [`StagedState::push_co`].
    pub fn pop_co(&mut self, preds: &[EventId], w: EventId) {
        self.undo_frame();
        // rf is stable throughout the coherence stage, so the delta
        // recomputes to exactly the pushed set.
        let mut scratch = std::mem::take(&mut self.fr_scratch);
        self.fill_fr_delta(preds, w, &mut scratch);
        for &(r, w) in &scratch {
            self.rel_mut(self.fr).remove(r, w);
        }
        self.fr_scratch = scratch;
        for &p in preds {
            self.rel_mut(self.co).remove(p, w);
        }
    }

    /// Folds every frame pushed so far into the session baseline: staged
    /// constraint values keep their current contents, each acyclicity
    /// order snapshots its reachability state (journals cleared via
    /// [`IncrementalOrder::snapshot`]), and the undo stack empties —
    /// subsequent pops can only unwind pushes made *after* this call.
    ///
    /// The work-stealing enumerator calls this when a worker adopts a
    /// stolen DFS frontier: the replayed forced prefix becomes the
    /// session's permanent split-point baseline and is never popped.
    pub fn absorb(&mut self) {
        for con in &mut self.cons {
            if let ConState::Acyclic { order, .. } = con {
                order.snapshot();
            }
        }
        let mut frames = std::mem::take(&mut self.frames);
        for frame in &mut frames {
            for cf in frame.iter_mut() {
                cf.delta.clear();
                cf.elems.clear();
                cf.selfloops = 0;
            }
        }
        self.spare_frames.append(&mut frames);
    }

    /// Re-evaluates the rf/co-dependent frontier and applies each staged
    /// constraint's value delta under a fresh undo frame.
    fn advance(&mut self) -> Result<PartialVerdict> {
        let plan = self.plan;
        for &si in &plan.frontier_steps {
            let Step::BindDyn {
                recursive,
                bindings,
                ..
            } = &plan.steps[si]
            else {
                unreachable!("frontier steps are dynamic bindings");
            };
            self.bind_group(*recursive, bindings, false)?;
        }
        // Recycle a popped frame's buffers (cleared on pop/absorb): the
        // steady-state DFS push allocates no delta vectors.
        let mut frame = self.spare_frames.pop().unwrap_or_default();
        frame.resize_with(self.cons.len(), ConsFrame::default);
        for (i, c) in plan.constraints.iter().enumerate() {
            let new = {
                let env = Env::view(&self.base, &self.slots);
                eval_expr(&c.expr, &env)?
            };
            let cf = &mut frame[i];
            match (&mut self.cons[i], new) {
                (ConState::Acyclic { value, order }, CatValue::Rel(new)) => {
                    new.edge_diff_into(value, &mut cf.delta);
                    order.begin();
                    for &(a, b) in &cf.delta {
                        order.add_edge(a, b);
                    }
                    *value = new;
                }
                (ConState::Irreflexive { value, selfloops }, CatValue::Rel(new)) => {
                    new.edge_diff_into(value, &mut cf.delta);
                    cf.selfloops = cf.delta.iter().filter(|(a, b)| a == b).count() as u32;
                    *selfloops += cf.selfloops;
                    *value = new;
                }
                (ConState::Empty { value }, CatValue::Rel(new)) => {
                    new.edge_diff_into(value, &mut cf.delta);
                    *value = new;
                }
                (ConState::EmptySet { value }, CatValue::Set(new)) => {
                    cf.elems.extend(new.iter().filter(|e| !value.contains(*e)));
                    *value = new;
                }
                _ => {
                    return Err(Error::Model(format!(
                        "{}: expression changed type between candidates",
                        c.name
                    )))
                }
            }
        }
        self.frames.push(frame);
        Ok(self.verdict())
    }

    fn undo_frame(&mut self) {
        let mut frame = self.frames.pop().expect("pop without matching push");
        for (con, cf) in self.cons.iter_mut().zip(frame.iter_mut()) {
            match con {
                ConState::Acyclic { value, order } => {
                    order.undo();
                    for &(a, b) in &cf.delta {
                        value.remove(a, b);
                    }
                }
                ConState::Irreflexive { value, selfloops } => {
                    *selfloops -= cf.selfloops;
                    for &(a, b) in &cf.delta {
                        value.remove(a, b);
                    }
                }
                ConState::Empty { value } => {
                    for &(a, b) in &cf.delta {
                        value.remove(a, b);
                    }
                }
                ConState::EmptySet { value } => {
                    for &e in &cf.elems {
                        value.remove(e);
                    }
                }
            }
            cf.delta.clear();
            cf.elems.clear();
            cf.selfloops = 0;
        }
        self.spare_frames.push(frame);
    }

    /// The current partial verdict, O(#constraints).
    pub fn verdict(&self) -> PartialVerdict {
        if self.const_violated || self.cons.iter().any(ConState::violated) {
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
                Step::CheckStaged { idx } if self.cons[*idx].violated() => {
                    return Some(&self.plan.constraints[*idx].name);
                }
                _ => {}
            }
        }
        None
    }

    /// The leaf verdict: statements walked in source order — staged and
    /// constant checks answered from state, residual checks and flags
    /// evaluated — so the first-violated rule name and the flag list are
    /// byte-identical to [`crate::eval::run_program`].
    pub fn check_leaf(&self) -> Result<Verdict> {
        let mut flags = Vec::new();
        let mut env = Env::view(&self.base, &self.slots);
        for step in &self.plan.steps {
            match step {
                // A frontier slot holds the value of the latest push, which
                // pops leave stale: a leaf with no push in force (a session
                // reused after its pushes were popped) re-derives it.
                Step::BindDyn {
                    recursive,
                    bindings,
                    frontier: true,
                    leaf: true,
                } if self.frames.is_empty() => eval_let_group(&mut env, *recursive, bindings)?,
                Step::BindConst { .. } | Step::BindDyn { frontier: true, .. } => {}
                Step::BindDyn {
                    recursive,
                    bindings,
                    leaf: true,
                    ..
                } => eval_let_group(&mut env, *recursive, bindings)?,
                Step::BindDyn { .. } => {}
                Step::CheckConst { cslot, name, .. } => {
                    if !self.const_results[*cslot] {
                        return Ok(Verdict::Forbidden { rule: name.clone() });
                    }
                }
                Step::CheckStaged { idx } => {
                    if self.cons[*idx].violated() {
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

/// Diagonal edge count of a relation.
fn diagonal_len(r: &Relation) -> u32 {
    r.iter().filter(|(a, b)| a == b).count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::run_program;
    use crate::registry::CatModel;
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
            state.push_rf(wy1, ry).unwrap();
            check(&state, &partial);
            partial.rf.insert(wx1, rx);
            state.push_rf(wx1, rx).unwrap();
            check(&state, &partial);
            state.pop_rf(wx1, rx);
            partial.rf.remove(wx1, rx);
            partial.rf.insert(wx0, rx);
            state.push_rf(wx0, rx).unwrap();
            check(&state, &partial);
            // co stage: x chain init→new, then y chain init→new.
            partial.co.insert(wx0, wx1);
            state.push_co(&[wx0], wx1).unwrap();
            check(&state, &partial);
            partial.co.insert(wy0, wy1);
            state.push_co(&[wy0], wy1).unwrap();
            check(&state, &partial);
            // Leaf: complete candidate — byte-identical verdict.
            assert_eq!(
                state.check_leaf().unwrap(),
                run_program(model.program(), &partial).unwrap(),
                "{model_name}: leaf verdict diverges"
            );
            // Unwind everything; the state must return to the seed.
            state.pop_co(&[wy0], wy1);
            partial.co.remove(wy0, wy1);
            state.pop_co(&[wx0], wx1);
            partial.co.remove(wx0, wx1);
            check(&state, &partial);
            state.pop_rf(wx0, rx);
            partial.rf.remove(wx0, rx);
            state.pop_rf(wy1, ry);
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
        PopRf(u32, u32),
        PushCo(u32, u32),
        PopCo(u32, u32),
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
                        state.push_rf(e(w), e(r)).unwrap();
                        None
                    }
                    Op::PopRf(w, r) => {
                        state.pop_rf(e(w), e(r));
                        None
                    }
                    Op::PushCo(p, w) => {
                        state.push_co(&[e(p)], e(w)).unwrap();
                        None
                    }
                    Op::PopCo(p, w) => {
                        state.pop_co(&[e(p)], e(w));
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
            Op::PopCo(1, 3),
            Op::PopCo(0, 2),
            Op::PopRf(2, 5),
            Op::PushRf(0, 5),
            Op::PushCo(0, 2),
            Op::PushCo(1, 3),
            Op::Leaf,
            Op::PopCo(1, 3),
            Op::PopCo(0, 2),
            Op::PopRf(0, 5),
            Op::PopRf(3, 4),
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
            Op::PopCo(1, 3),
            Op::PopCo(0, 2),
            Op::PopRf(0, 5),
            Op::PushRf(2, 5),
            Op::PushCo(0, 2),
            Op::Leaf,
            Op::PopCo(0, 2),
            Op::PopRf(2, 5),
            Op::PopRf(1, 4),
            // The weak outcome (new flag, stale payload), then unwind.
            Op::PushRf(3, 4),
            Op::PushRf(0, 5),
            Op::PushCo(0, 2),
            Op::PushCo(1, 3),
            Op::Leaf,
            Op::PopCo(1, 3),
            Op::PopCo(0, 2),
            Op::PopRf(0, 5),
            Op::PopRf(3, 4),
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
}
