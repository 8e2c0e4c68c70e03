//! The incremental candidate-execution enumeration engine.
//!
//! This is the herd-equivalent core (paper §II-A): enumerate every
//! candidate execution of a litmus test — combinations of per-thread
//! traces, a reads-from assignment and a per-location coherence order —
//! filter them through a consistency model, and collect the outcomes of
//! the allowed ones. The enumeration cost is the product of per-thread
//! trace counts, rf choices per read and coherence permutations per
//! location; that product is what explodes on unoptimised compiled tests
//! (paper §IV-E / Fig. 11).
//!
//! # Architecture: staged builder with pruning and parallel combos
//!
//! The engine is organised as a three-stage pipeline per *combo* (one
//! choice of per-thread traces), instead of the naive
//! generate-all-then-filter loop (retained in [`crate::reference`] as the
//! differential-testing oracle):
//!
//! 1. **Combine** — [`build_combined`] assembles the combo's event graph
//!    once: events, transitive `po` (built in one pass via
//!    [`Relation::total_order`]), and the `rmw`/`addr`/`data`/`ctrl`
//!    dependency relations. These are *fixed* for every candidate of the
//!    combo and shared immutably; only `rf`, `co` and the outcome vary.
//! 2. **Assign rf** — reads are justified one at a time over their
//!    statically-filtered candidate writes (same location, same value, not
//!    po-later in the same thread). After each assignment the model's
//!    [`ConsistencyModel::check_partial`] fast-reject hook runs; a
//!    `Forbidden` verdict prunes the whole subtree *before* any coherence
//!    order is enumerated.
//! 3. **Assign co** — coherence orders are generated lazily, one write at
//!    a time per location (swap-based permutation DFS with undo), never
//!    materialising the `n!` permutation lists up front. The partial `co`
//!    is kept transitively closed, so `check_partial` sees exactly the
//!    prefix relations and can cut entire permutation subtrees.
//!
//! Pruned subtrees are still *accounted*: the engine adds the number of
//! complete candidates a cut subtree contains to the candidate counter,
//! so [`SimResult::candidates`] and the [`SimConfig::max_candidates`]
//! budget behave identically to exhaustive enumeration — pruning changes
//! time, not semantics.
//!
//! # Parallelism and determinism
//!
//! Trace combos are independent, so they are sharded across
//! [`SimConfig::threads`] workers (an atomic work-list over the linear
//! combo index). Each worker accumulates a private outcome shard; shards
//! are merged in combo order after the join. Outcome sets, flags, counts
//! and the crash bit are set unions/sums, so **results are identical for
//! every thread count**; with `threads = 1` the engine degenerates to the
//! exact sequential enumeration order of the reference engine.
//!
//! # One model session per skeleton
//!
//! The combos of a simulation differ mostly in the values their reads
//! assume, which no consistency model can see: the model reads the
//! *value-free skeleton* — event kinds, locations, annotations, `po` and
//! the `rmw`/`addr`/`data`/`ctrl` pairs. Each thread's traces get a shape
//! id once per simulation (`shape_ids`), a combo's skeleton key is its
//! tuple of per-thread shape ids, and a combo-mode worker keeps the
//! session it opened for a key and runs every later combo with that key
//! on it instead of opening another. The swap-DFS pops every push it
//! makes, so a session that finished a combo is back in its opening
//! state, which the [`ConsistencyModel::combo_checker`] contract requires
//! to answer like a fresh one. A combo that stops early drops its
//! session, and stolen frontier tasks (which absorb a prefix that is
//! never popped) always open their own.
//!
//! # Intra-combo work stealing
//!
//! Combo-granular sharding starves when a simulation has fewer combos
//! than workers (one giant combo monopolises the budget while the other
//! workers idle). When `threads > 1` and the combo count is below the
//! worker count, the engine switches to **frontier tasks**: a sequential
//! pre-pass sizes each combo's decision tree — rf choice arities first,
//! then the `m, m-1, …, 1` arities of each location's coherence positions
//! — and picks the shallowest split depth `D` whose arity product reaches
//! `threads × 4`. Every task is one assignment of the first `D` decisions
//! (a mixed-radix index, most-significant-first, so ascending task ids
//! walk the exact sequential DFS order), and workers claim task ids from
//! the same atomic work-list.
//!
//! A worker *replays* its task's forced prefix — pushing each pre-decoded
//! edge through the combo session so incremental checkers see the same
//! prefix states the sequential DFS saw — then calls
//! [`crate::model::ComboChecker::absorb`] to fold the prefix into the
//! session baseline (for `IncrementalOrder`-backed sessions this is the
//! existing `snapshot`, i.e. the worker's pool order is re-seeded from the
//! split point), and runs the ordinary swap-DFS below `D`. Forced-level
//! prunes charge the task's *tail product* (the candidates under one task)
//! rather than the sequential subtree; summed over the sibling tasks that
//! replay the same pruned prefix this equals the sequential charge
//! exactly, so candidate accounting, outcome sets and kept executions
//! (merged by ascending task id) stay **byte-identical to the sequential
//! DFS** at every thread count.

use crate::config::{Deadline, PruneSites, SimConfig, SimResult};
use crate::event::{Event, EventKind, Execution, INIT_THREAD};
use crate::model::{ComboChecker, ConsistencyModel, PartialVerdict, Verdict};
use crate::rel::Relation;
use crate::trace::{interpret_thread, value_pools, InterpBudget, Trace};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use telechat_common::{
    Annot, AnnotSet, Error, EventId, Loc, Outcome, OutcomeSet, Reg, Result, StateKey, ThreadId,
    Val,
};
use telechat_litmus::LitmusTest;

/// Interprets every thread of `test`, returning the complete traces per
/// thread (shared by the incremental and reference engines).
pub(crate) fn interpret_all_traces(
    test: &LitmusTest,
    config: &SimConfig,
) -> Result<Vec<Vec<Trace>>> {
    let mut budget = InterpBudget::new(config.max_steps);
    let pools = value_pools(test, config.unroll, config.max_pool_iters, &mut budget)?;
    let mut thread_traces: Vec<Vec<Trace>> = Vec::with_capacity(test.threads.len());
    for t in 0..test.threads.len() {
        let mut traces = interpret_thread(
            test,
            ThreadId(t as u8),
            &pools,
            config.unroll,
            config.excl_fail_paths,
            &mut budget,
        )?;
        traces.retain(|tr| tr.complete);
        traces.dedup();
        thread_traces.push(traces);
    }
    Ok(thread_traces)
}

/// The value-free part of a trace: everything a combo session may read.
#[derive(PartialEq, Eq, Hash)]
struct TraceShape<'t> {
    /// Kind, location and annotations per event, in po order.
    events: Vec<(EventKind, Option<&'t Loc>, AnnotSet)>,
    rmw: &'t [(usize, usize)],
    addr: &'t [(usize, usize)],
    data: &'t [(usize, usize)],
    ctrl: &'t [(usize, usize)],
}

/// Numbers one thread's traces by shape: two traces share an id iff they
/// agree on every event's kind, location, annotations and po position and
/// on their `rmw`/`addr`/`data`/`ctrl` pairs. Values and final registers
/// do not count. Ids are dense, in order of first appearance.
fn shape_ids(traces: &[Trace]) -> Vec<u32> {
    let mut ids: HashMap<TraceShape<'_>, u32> = HashMap::new();
    traces
        .iter()
        .map(|tr| {
            let shape = TraceShape {
                events: tr
                    .events
                    .iter()
                    .map(|e| (e.kind, e.loc.as_ref(), e.annot))
                    .collect(),
                rmw: &tr.rmw_pairs,
                addr: &tr.addr_deps,
                data: &tr.data_deps,
                ctrl: &tr.ctrl_deps,
            };
            let next = ids.len() as u32;
            *ids.entry(shape).or_insert(next)
        })
        .collect()
}

/// Simulates `test` under `model` (the paper's `herd(P, M)`).
///
/// # Errors
///
/// * [`Error::Timeout`] / [`Error::Budget`] on state explosion — the
///   behaviour the paper reports for unoptimised compiled tests;
/// * [`Error::IllFormed`] if the test is structurally invalid.
pub fn simulate(
    test: &LitmusTest,
    model: &dyn ConsistencyModel,
    config: &SimConfig,
) -> Result<SimResult> {
    simulate_until(test, model, config, None)
}

/// [`simulate`] for a work item with a [`Deadline`], checked at the start
/// and at the enumerator's timeout checkpoints.
///
/// # Errors
///
/// As [`simulate`], plus [`Error::Deadline`] once `deadline` has passed.
pub fn simulate_until(
    test: &LitmusTest,
    model: &dyn ConsistencyModel,
    config: &SimConfig,
    deadline: Option<Deadline>,
) -> Result<SimResult> {
    test.validate()?;
    if let Some(d) = deadline {
        d.check()?;
    }
    let start = Instant::now();
    let ft_start = crate::rel::full_traversals();
    let timeout_at = config.timeout.map(|t| start + t);

    let thread_traces = interpret_all_traces(test, config)?;
    let shapes: Vec<Vec<u32>> = thread_traces.iter().map(|t| shape_ids(t)).collect();

    let observed = test.observed_keys();
    let readonly: BTreeSet<Loc> = test
        .locs
        .iter()
        .filter(|d| d.readonly)
        .map(|d| d.loc.clone())
        .collect();

    let mut result = SimResult {
        outcomes: OutcomeSet::new(),
        candidates: 0,
        allowed: 0,
        flags: BTreeSet::new(),
        crashed: false,
        executions: Vec::new(),
        full_traversals: 0,
        pruned_candidates: 0,
        steal_tasks: 0,
        rule_leaves: BTreeMap::new(),
        rule_prunes: BTreeMap::new(),
        prune_sites: PruneSites::default(),
        combo_candidates: telechat_obs::Histogram::new(),
        elapsed: start.elapsed(),
    };

    // If any thread has no complete trace there are no executions.
    if thread_traces.iter().any(Vec::is_empty) {
        result.elapsed = start.elapsed();
        return Ok(result);
    }

    // Total combos; the linear index decodes with thread 0 least
    // significant, matching the reference odometer's enumeration order.
    let counts: Vec<u64> = thread_traces.iter().map(|t| t.len() as u64).collect();
    let total128: u128 = counts.iter().map(|&c| u128::from(c)).product();
    let total: u64 = total128.min(u128::from(u64::MAX)) as u64;

    let threads = config
        .threads
        .max(1)
        .min(usize::try_from(total).unwrap_or(usize::MAX));

    let shared = Shared {
        next: AtomicU64::new(0),
        candidates: AtomicU64::new(0),
        pruned: AtomicU64::new(0),
        abort: AtomicBool::new(false),
        error: Mutex::new(None),
    };

    let ctx = WorkerCtx {
        test,
        model,
        config,
        observed: &observed,
        readonly: &readonly,
        deadline: timeout_at,
        item: deadline,
        thread_traces: &thread_traces,
        shapes: &shapes,
        counts: &counts,
        total,
        shared: &shared,
    };

    // Fewer combos than workers: switch to intra-combo frontier tasks so
    // idle workers steal unexplored subtrees of the swap-DFS (module docs).
    let task_mode = config.threads > 1 && total < config.threads as u64;

    // Spawned workers start with a fresh thread-local traversal counter,
    // so their final value is their contribution; the spawning thread
    // reports its delta. They also re-parent their trace spans under the
    // caller's current span (the simulation leg).
    let parent_span = telechat_obs::current();
    let mut worker_traversals = 0u64;
    let mut steal_tasks = 0u64;
    let mut shards: Vec<Vec<(u64, ComboOut)>> = if task_mode {
        let plans = build_task_plans(&ctx);
        let total_tasks = plans.last().map_or(0, |p| p.first_task + p.tasks);
        steal_tasks = total_tasks;
        let workers = config
            .threads
            .min(usize::try_from(total_tasks).unwrap_or(usize::MAX));
        if total_tasks == 0 {
            Vec::new()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let _trace = telechat_obs::adopt(parent_span.clone());
                            let shard = run_task_worker(&ctx, &plans, total_tasks);
                            (shard, crate::rel::full_traversals())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        let (shard, ft) = h.join().expect("enumeration worker panicked");
                        worker_traversals += ft;
                        shard
                    })
                    .collect()
            })
        }
    } else if threads == 1 {
        vec![run_worker(&ctx)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let _trace = telechat_obs::adopt(parent_span.clone());
                        (run_worker(&ctx), crate::rel::full_traversals())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    let (shard, ft) = h.join().expect("enumeration worker panicked");
                    worker_traversals += ft;
                    shard
                })
                .collect()
        })
    };

    if let Some((_, e)) = shared.error.lock().expect("error slot").take() {
        return Err(e);
    }

    // Deterministic merge: combo order, regardless of which worker ran what.
    let mut outs: Vec<(u64, ComboOut)> = shards.drain(..).flatten().collect();
    outs.sort_unstable_by_key(|(idx, _)| *idx);
    // Per-combo DFS sizes: after the sort, task-mode shards of one combo
    // are contiguous (ascending task ids walk ascending combos), so one
    // histogram sample per combo is the group's charge sum. Zero-charge
    // groups are skipped — a combo-mode worker emits an empty shard for an
    // unjustifiable-read combo where task mode emits no tasks at all —
    // keeping the histogram byte-identical across both scheduling modes.
    let mut combo_group: Option<u64> = None;
    let mut combo_charge = 0u64;
    for (_, out) in outs {
        if combo_group != Some(out.combo_idx) {
            if combo_charge > 0 {
                result.combo_candidates.record(combo_charge);
            }
            combo_group = Some(out.combo_idx);
            combo_charge = 0;
        }
        combo_charge += out.charged;
        result.allowed += out.allowed;
        result.crashed |= out.crashed;
        result.flags.extend(out.flags);
        result.prune_sites.merge(&out.prune_sites);
        for (rule, n) in out.rule_leaves {
            *result.rule_leaves.entry(rule).or_insert(0) += n;
        }
        for (rule, n) in out.rule_prunes {
            *result.rule_prunes.entry(rule).or_insert(0) += n;
        }
        for o in out.outcomes.iter() {
            result.outcomes.insert(o.clone());
        }
        for x in out.executions {
            if result.executions.len() < config.max_kept {
                result.executions.push(x);
            }
        }
    }
    if combo_charge > 0 {
        result.combo_candidates.record(combo_charge);
    }
    result.candidates = shared.candidates.load(Ordering::Relaxed);
    result.pruned_candidates = shared.pruned.load(Ordering::Relaxed);
    result.steal_tasks = steal_tasks;
    result.full_traversals =
        (crate::rel::full_traversals() - ft_start).saturating_add(worker_traversals);
    result.elapsed = start.elapsed();
    Ok(result)
}

/// Cross-worker coordination state.
struct Shared {
    /// Next linear combo index to claim.
    next: AtomicU64,
    /// Candidate counter (examined + pruned-accounted), shared so the
    /// budget is global like the sequential engine's.
    candidates: AtomicU64,
    /// The pruned-subtree slice of `candidates` (charge sums, not prune
    /// events, so the total matches the sequential DFS at every thread
    /// count and in task mode).
    pruned: AtomicU64,
    /// Set on error; workers stop claiming and unwind.
    abort: AtomicBool,
    /// First error by lowest combo index (deterministic for `threads = 1`).
    error: Mutex<Option<(u64, Error)>>,
}

/// Everything a worker needs, by reference.
struct WorkerCtx<'a> {
    test: &'a LitmusTest,
    model: &'a dyn ConsistencyModel,
    config: &'a SimConfig,
    observed: &'a BTreeSet<StateKey>,
    readonly: &'a BTreeSet<Loc>,
    /// When the simulation's own [`SimConfig::timeout`] runs out.
    deadline: Option<Instant>,
    /// The work item's deadline, if the caller has one.
    item: Option<Deadline>,
    thread_traces: &'a [Vec<Trace>],
    /// Per thread, the shape id of each trace ([`shape_ids`]).
    shapes: &'a [Vec<u32>],
    counts: &'a [u64],
    total: u64,
    shared: &'a Shared,
}

/// One combo's private result shard.
#[derive(Default)]
struct ComboOut {
    /// Linear combo index this shard belongs to (set by the claim loops;
    /// in task mode several shards share one combo). The merge groups
    /// shards by this to record per-combo DFS sizes.
    combo_idx: u64,
    /// Candidate charge (leaves + pruned subtrees) accounted inside this
    /// shard's DFS.
    charged: u64,
    /// Forbidden-leaf tally per first-violated rule name.
    rule_leaves: BTreeMap<String, u64>,
    /// Pruned charge per blamed rule name (mid-DFS rejections).
    rule_prunes: BTreeMap<String, u64>,
    /// Pruned charge per enumeration prune site.
    prune_sites: PruneSites,
    outcomes: OutcomeSet,
    allowed: u64,
    flags: BTreeSet<String>,
    crashed: bool,
    executions: Vec<Execution>,
}

/// Why a combo stopped early.
enum Stop {
    /// Another worker failed; discard quietly.
    Cancelled,
    /// This worker hit a budget/timeout.
    Fatal(Error),
}

/// Decodes a linear combo index into per-thread trace choices (thread 0
/// least significant, matching the reference odometer's order).
fn decode_combo<'a>(ctx: &WorkerCtx<'a>, idx: u64) -> Vec<&'a Trace> {
    let mut rem = idx;
    ctx.counts
        .iter()
        .enumerate()
        .map(|(t, &c)| {
            let i = (rem % c) as usize;
            rem /= c;
            &ctx.thread_traces[t][i]
        })
        .collect()
}

/// Writes combo `idx`'s skeleton key — its per-thread shape ids, decoded
/// like [`decode_combo`] — into `key`.
fn skeleton_key(ctx: &WorkerCtx<'_>, idx: u64, key: &mut Vec<u32>) {
    key.clear();
    let mut rem = idx;
    for (t, &c) in ctx.counts.iter().enumerate() {
        key.push(ctx.shapes[t][(rem % c) as usize]);
        rem /= c;
    }
}

/// A combo-mode worker's model sessions, one per skeleton key it has met
/// (`None` while the key's session is out with a running combo or was
/// dropped by one that stopped early).
type Sessions<'a> = HashMap<Vec<u32>, Option<Box<dyn ComboChecker + 'a>>>;

impl WorkerCtx<'_> {
    /// The error once the timeout or the item's deadline has passed.
    fn overrun(&self) -> Option<Error> {
        if self.deadline.is_some_and(|d| Instant::now() > d) {
            let limit_ms = self.config.timeout.map(|t| t.as_millis() as u64).unwrap_or(0);
            return Some(Error::Timeout { limit_ms });
        }
        self.item.and_then(|d| d.check().err())
    }
}

/// Cross-worker abort / time-limit poll at claim boundaries. The
/// intra-combo tick only fires every 256 leaves, so a workload whose
/// explosion is in *combinations* (many combos, each small) must also poll
/// here. Returns `true` when the worker should unwind.
fn poll_stop(ctx: &WorkerCtx<'_>) -> bool {
    if ctx.shared.abort.load(Ordering::Relaxed) {
        return true;
    }
    if let Some(e) = ctx.overrun() {
        let mut slot = ctx.shared.error.lock().expect("error slot");
        if slot.is_none() {
            *slot = Some((u64::MAX, e));
        }
        ctx.shared.abort.store(true, Ordering::Relaxed);
        return true;
    }
    false
}

fn run_worker<'a>(ctx: &WorkerCtx<'a>) -> Vec<(u64, ComboOut)> {
    let mut local = Vec::new();
    let mut sessions: Sessions<'a> = HashMap::new();
    let mut key = Vec::with_capacity(ctx.counts.len());
    loop {
        if poll_stop(ctx) {
            return local;
        }
        let idx = ctx.shared.next.fetch_add(1, Ordering::Relaxed);
        if idx >= ctx.total {
            return local;
        }
        let _span = telechat_obs::span_idx("combo", idx);
        let traces = decode_combo(ctx, idx);
        skeleton_key(ctx, idx, &mut key);
        if !sessions.contains_key(key.as_slice()) {
            sessions.insert(key.clone(), None);
        }
        let session = sessions.get_mut(key.as_slice()).expect("key just inserted");
        match run_combo(ctx, &traces, Vec::new(), 1, session) {
            Ok(mut out) => {
                out.combo_idx = idx;
                local.push((idx, out));
            }
            Err(Stop::Cancelled) => return local,
            Err(Stop::Fatal(e)) => {
                let mut slot = ctx.shared.error.lock().expect("error slot");
                if slot.as_ref().is_none_or(|(i, _)| idx < *i) {
                    *slot = Some((idx, e));
                }
                ctx.shared.abort.store(true, Ordering::Relaxed);
                return local;
            }
        }
    }
}

/// One combo's slice of the frontier-task space (module docs): the first
/// `arities.len()` DFS decisions are pre-assigned per task, tasks are
/// numbered `first_task ..` in sequential DFS order.
struct TaskPlan {
    /// Linear combo index (decodes to per-thread traces).
    combo_idx: u64,
    /// Global id of this combo's first frontier task.
    first_task: u64,
    /// Task count = Π `arities` (the mixed-radix space).
    tasks: u64,
    /// Arity of each *forced* decision level, in DFS order: rf choice
    /// counts first, then the descending `m-k` coherence position
    /// arities, truncated at the split depth.
    arities: Vec<u64>,
    /// Candidates under one task — the Π of the arities *below* the split
    /// depth (saturating). A forced-level prune charges this much; summed
    /// over the sibling tasks sharing the pruned prefix it equals the
    /// sequential subtree charge exactly.
    task_charge: u64,
}

/// Sizes every combo's decision tree and splits it into frontier tasks.
/// Sequential pre-pass: the task-mode trigger guarantees fewer combos
/// than workers, so the extra `build_combined` here is negligible.
fn build_task_plans(ctx: &WorkerCtx<'_>) -> Vec<TaskPlan> {
    let want = (ctx.config.threads as u64).saturating_mul(4);
    let mut plans = Vec::new();
    let mut first_task = 0u64;
    for combo_idx in 0..ctx.total {
        let traces = decode_combo(ctx, combo_idx);
        let combined = build_combined(ctx.test, &traces);
        let Some(rf_choices) = combined.rf_candidates() else {
            continue; // unjustifiable read: no candidates, no tasks
        };
        // Decision arities in DFS order: rf levels, then the co positions
        // of each location (m, m-1, …, 1 — the swap DFS picks one of the
        // remaining writes per position).
        let mut arities: Vec<u64> = rf_choices.iter().map(|c| c.len() as u64).collect();
        for writes in combined.writes_by_loc.values() {
            let m = writes.len() - 1; // element 0 is the init write
            for k in 0..m {
                arities.push((m - k) as u64);
            }
        }
        // Shallowest split depth whose arity product covers the workers a
        // few times over (load balance without flooding the claim queue);
        // the remaining tail product is the per-task charge.
        let mut tasks = 1u64;
        let mut depth = 0;
        while depth < arities.len() && tasks < want {
            tasks = tasks.saturating_mul(arities[depth]);
            depth += 1;
        }
        let task_charge = arities[depth..]
            .iter()
            .fold(1u64, |p, &a| p.saturating_mul(a));
        arities.truncate(depth);
        plans.push(TaskPlan {
            combo_idx,
            first_task,
            tasks,
            arities,
            task_charge,
        });
        first_task += tasks;
    }
    plans
}

/// The work-stealing claim loop: identical to [`run_worker`] except the
/// atomic work-list ranges over frontier tasks instead of combos, and
/// results/errors are keyed by global task id (ascending ids are
/// sequential DFS order, so the merge stays byte-identical).
fn run_task_worker(
    ctx: &WorkerCtx<'_>,
    plans: &[TaskPlan],
    total_tasks: u64,
) -> Vec<(u64, ComboOut)> {
    let mut local = Vec::new();
    loop {
        if poll_stop(ctx) {
            return local;
        }
        let tid = ctx.shared.next.fetch_add(1, Ordering::Relaxed);
        if tid >= total_tasks {
            return local;
        }
        let _span = telechat_obs::span_idx("dfs-shard", tid);
        let plan = plans
            .iter()
            .find(|p| tid >= p.first_task && tid - p.first_task < p.tasks)
            .expect("task id within plan range");
        // Mixed-radix decode, most significant (shallowest) level first:
        // ascending task ids walk forced prefixes in sequential DFS order.
        let mut forced = vec![0usize; plan.arities.len()];
        let mut rem = tid - plan.first_task;
        for (j, &a) in plan.arities.iter().enumerate().rev() {
            forced[j] = (rem % a) as usize;
            rem /= a;
        }
        let traces = decode_combo(ctx, plan.combo_idx);
        match run_combo(ctx, &traces, forced, plan.task_charge, &mut None) {
            Ok(mut out) => {
                out.combo_idx = plan.combo_idx;
                local.push((tid, out));
            }
            Err(Stop::Cancelled) => return local,
            Err(Stop::Fatal(e)) => {
                let mut slot = ctx.shared.error.lock().expect("error slot");
                if slot.as_ref().is_none_or(|(i, _)| tid < *i) {
                    *slot = Some((tid, e));
                }
                ctx.shared.abort.store(true, Ordering::Relaxed);
                return local;
            }
        }
    }
}

/// Saturating factorial (subtree sizes; saturation only ever *over*-counts,
/// which can only trip the budget earlier, never later).
fn fact(n: u64) -> u64 {
    (2..=n).try_fold(1u64, u64::checked_mul).unwrap_or(u64::MAX)
}

/// Partial checks are only worth their cost when a real subtree hangs off
/// the node: below this many completions the engine just enumerates (the
/// leaves' full checks dominate either way, and skipping the hook keeps
/// small simulations at reference-engine speed).
const PRUNE_THRESHOLD: u64 = 8;

/// Runs one combo's DFS — the whole combo when `forced` is empty, or one
/// stolen frontier task: the DFS restricted to the pre-decoded choice at
/// each of the first `forced.len()` decisions, charging `task_charge` per
/// forced-level prune (see the module docs and [`ComboRun::maybe_absorb`]).
///
/// `session` is the model session of the combo's skeleton: taken if
/// present, opened otherwise, and put back when the DFS completes (every
/// push popped). A combo that stops early leaves it `None`.
fn run_combo<'a>(
    ctx: &WorkerCtx<'a>,
    traces: &[&Trace],
    forced: Vec<usize>,
    task_charge: u64,
    session: &mut Option<Box<dyn ComboChecker + 'a>>,
) -> std::result::Result<ComboOut, Stop> {
    let combined = build_combined(ctx.test, traces);

    let Some(rf_choices) = combined.rf_candidates() else {
        return Ok(ComboOut::default()); // some read unjustifiable
    };

    let locs: Vec<Loc> = combined.writes_by_loc.keys().cloned().collect();
    let co_writes: Vec<Vec<EventId>> = locs
        .iter()
        .map(|l| combined.writes_by_loc[l][1..].to_vec()) // element 0 is init
        .collect();
    let chains: Vec<Vec<EventId>> = locs.iter().map(|l| vec![combined.init_of[l]]).collect();

    // Subtree sizes for pruned-candidate accounting.
    // co_tail[li] = Π_{l ≥ li} m_l!  (co_tail[len] = 1)
    let mut co_tail = vec![1u64; locs.len() + 1];
    for li in (0..locs.len()).rev() {
        co_tail[li] = fact(co_writes[li].len() as u64).saturating_mul(co_tail[li + 1]);
    }
    // rf_tail[i] = Π_{j ≥ i} |rf_choices[j]| × Π_l m_l!  (rf_tail[len] = co_tail[0])
    let mut rf_tail = vec![co_tail[0]; rf_choices.len() + 1];
    for i in (0..rf_choices.len()).rev() {
        rf_tail[i] = (rf_choices[i].len() as u64).saturating_mul(rf_tail[i + 1]);
    }

    // The skeleton is built once per combo; rf/co mutate in place along the
    // DFS, the fixed relations are shared by every candidate.
    let execution = Execution {
        events: combined.events.clone(),
        po: combined.po.clone(),
        rf: Relation::new(),
        co: Relation::new(),
        rmw: combined.rmw.clone(),
        addr: combined.addr.clone(),
        data: combined.data.clone(),
        ctrl: combined.ctrl.clone(),
        outcome: Outcome::new(),
    };

    // Register part of the outcome: fixed per combo.
    let mut reg_outcome = Outcome::new();
    for key in ctx.observed {
        if let StateKey::Reg(t, r) = key {
            let v = combined
                .final_regs
                .get(&(*t, r.clone()))
                .cloned()
                .unwrap_or(Val::Int(0));
            reg_outcome.set(key.clone(), v);
        }
    }

    // Whether an allowed execution of this combo writes read-only memory:
    // a property of the combo's events, not of rf/co.
    let writes_readonly = !ctx.readonly.is_empty()
        && combined.events.iter().any(|e: &Event| {
            e.kind == EventKind::Write
                && !e.is_init()
                && e.loc.as_ref().is_some_and(|l| ctx.readonly.contains(l))
        });

    let loc_index: BTreeMap<&Loc, usize> =
        locs.iter().enumerate().map(|(i, l)| (l, i)).collect();

    // Decision-depth offset of each location's first co position (one
    // extra entry so the leaf depth is addressable too): the DFS depth of
    // co position (li, k) is reads.len() + co_offsets[li] + k.
    let mut co_offsets = Vec::with_capacity(co_writes.len() + 1);
    let mut off = 0usize;
    for w in &co_writes {
        co_offsets.push(off);
        off += w.len();
    }
    co_offsets.push(off);

    // The model's session for this skeleton: combo-constant derived
    // relations (loc/ext/int, annotation sets, …) were computed when it
    // was opened and are shared by every candidate below. Incremental
    // sessions additionally receive every DFS edge push/pop (see
    // `ComboChecker`).
    let checker = session
        .take()
        .unwrap_or_else(|| ctx.model.combo_checker(&execution));
    let incremental = checker.incremental();

    let mut run = ComboRun {
        ctx,
        checker,
        incremental,
        reads: &combined.reads,
        rf_choices,
        rf_tail,
        co_writes,
        chains,
        co_tail,
        loc_index,
        co_offsets,
        forced,
        task_charge,
        absorbed: false,
        execution,
        reg_outcome,
        writes_readonly,
        out: ComboOut::default(),
        visits: 0,
    };
    run.assign_rf(0)?;
    *session = Some(run.checker);
    Ok(run.out)
}

/// The per-combo DFS state: one mutable skeleton, extended and undone as
/// the builder walks rf choices and coherence prefixes.
struct ComboRun<'r, 'a, 'c> {
    ctx: &'r WorkerCtx<'a>,
    checker: Box<dyn ComboChecker + 'a>,
    /// Whether `checker` opted into the per-edge incremental protocol.
    incremental: bool,
    reads: &'c [EventId],
    rf_choices: Vec<Vec<EventId>>,
    rf_tail: Vec<u64>,
    /// Per location, the non-init writes; permuted in place (swap DFS).
    co_writes: Vec<Vec<EventId>>,
    /// Per location, the current coherence chain (init write first).
    chains: Vec<Vec<EventId>>,
    co_tail: Vec<u64>,
    loc_index: BTreeMap<&'c Loc, usize>,
    /// Decision-depth offset of each location's first co position
    /// (`len + 1` entries; see [`run_combo`]).
    co_offsets: Vec<usize>,
    /// Forced decision prefix of a stolen frontier task, empty in combo
    /// mode: `forced[d]` is the choice index taken at DFS depth `d`.
    forced: Vec<usize>,
    /// Candidates under one frontier task (1 in combo mode): the charge
    /// for a prune at a forced level.
    task_charge: u64,
    /// Whether the forced prefix has been absorbed into the session.
    absorbed: bool,
    execution: Execution,
    reg_outcome: Outcome,
    writes_readonly: bool,
    out: ComboOut,
    visits: u64,
}

impl ComboRun<'_, '_, '_> {
    /// Accounts `n` candidates (examined or pruned) against the global
    /// budget, and against this shard's tally (the per-combo DFS-size
    /// histogram sums shard tallies at merge).
    fn charge(&mut self, n: u64) -> std::result::Result<(), Stop> {
        self.out.charged = self.out.charged.saturating_add(n);
        let prev = self.ctx.shared.candidates.fetch_add(n, Ordering::Relaxed);
        let total = prev.saturating_add(n);
        if total > self.ctx.config.max_candidates {
            self.ctx.shared.abort.store(true, Ordering::Relaxed);
            return Err(Stop::Fatal(Error::Budget { steps: total }));
        }
        Ok(())
    }

    /// [`ComboRun::charge`] for a pruned subtree: the charge also lands in
    /// the shared pruned tally, so `SimResult::pruned_candidates` reports
    /// how much of the budget prunes covered. Always on (it feeds result
    /// accounting, not just telemetry) and deterministic by the same
    /// charge-sum argument as the budget itself.
    fn charge_pruned(&mut self, n: u64) -> std::result::Result<(), Stop> {
        self.ctx.shared.pruned.fetch_add(n, Ordering::Relaxed);
        self.charge(n)
    }

    /// Attribution for a prune of `n` candidates, recorded just before the
    /// cut is charged: which site fired (the assignment layer × whether
    /// the incremental session or a periodic recheck said `Forbidden`),
    /// and — when the session can name it — the first-violated rule.
    /// Rides the `ComboOut` shard, so the merged totals are charge sums:
    /// byte-identical across thread counts and task-splitting mode, like
    /// [`SimResult::pruned_candidates`] itself.
    fn attribute_prune(&mut self, n: u64, rf_site: bool) {
        match (rf_site, self.incremental) {
            (true, true) => self.out.prune_sites.rf_incremental += n,
            (true, false) => self.out.prune_sites.rf_recheck += n,
            (false, true) => self.out.prune_sites.co_incremental += n,
            (false, false) => self.out.prune_sites.co_recheck += n,
        }
        if let Some(rule) = self.checker.blame() {
            let rule = rule.to_string();
            *self.out.rule_prunes.entry(rule).or_insert(0) += n;
        }
    }

    /// Periodic time-limit / cross-worker abort check.
    fn tick(&mut self) -> std::result::Result<(), Stop> {
        self.visits += 1;
        if !self.visits.is_multiple_of(256) {
            return Ok(());
        }
        if self.ctx.shared.abort.load(Ordering::Relaxed) {
            return Err(Stop::Cancelled);
        }
        if let Some(e) = self.ctx.overrun() {
            self.ctx.shared.abort.store(true, Ordering::Relaxed);
            return Err(Stop::Fatal(e));
        }
        Ok(())
    }

    /// Folds the forced prefix into the model session the first time the
    /// DFS reaches the free region (depth = forced length): from here on
    /// the task is an ordinary combo DFS whose session was re-seeded from
    /// the split point, and the forced pushes are never popped (the task
    /// owns this `ComboRun`; nothing below ever unwinds past the split).
    fn maybe_absorb(&mut self, depth: usize) {
        if !self.absorbed && !self.forced.is_empty() && depth >= self.forced.len() {
            if self.incremental {
                self.checker.absorb();
            }
            self.absorbed = true;
        }
    }

    /// Stage 2: justify read `i`, then recurse; prune on partial verdicts.
    ///
    /// Incremental sessions see *every* edge (`push_rf`/`pop_rf`) and their
    /// verdict is free, so any `Forbidden` prunes regardless of subtree
    /// size; re-check sessions are only consulted when a subtree of at
    /// least [`PRUNE_THRESHOLD`] completions hangs off the node.
    fn assign_rf(&mut self, i: usize) -> std::result::Result<(), Stop> {
        self.maybe_absorb(i);
        if i == self.reads.len() {
            return self.assign_co(0, 0);
        }
        let r = self.reads[i];
        let subtree = self.rf_tail[i + 1];
        if i < self.forced.len() {
            // Stolen frontier: replay the one pre-decoded choice, with the
            // same verdict protocol the sequential loop body uses, so the
            // session and the prune decisions match the sequential DFS
            // exactly. A prune charges the per-task tail product — summed
            // over the sibling tasks replaying this prefix that equals
            // `subtree`, the sequential charge.
            let w = self.rf_choices[i][self.forced[i]];
            self.execution.rf.insert(w, r);
            let verdict = if self.incremental {
                self.checker.push_rf(&self.execution, w, r)
            } else if subtree >= PRUNE_THRESHOLD {
                self.checker.check_partial(&self.execution)
            } else {
                PartialVerdict::Undecided
            };
            return if verdict == PartialVerdict::Forbidden {
                self.attribute_prune(self.task_charge, true);
                self.charge_pruned(self.task_charge)
            } else {
                self.assign_rf(i + 1)
            };
        }
        for ci in 0..self.rf_choices[i].len() {
            let w = self.rf_choices[i][ci];
            self.execution.rf.insert(w, r);
            let verdict = if self.incremental {
                self.checker.push_rf(&self.execution, w, r)
            } else if subtree >= PRUNE_THRESHOLD {
                self.checker.check_partial(&self.execution)
            } else {
                PartialVerdict::Undecided
            };
            let res = if verdict == PartialVerdict::Forbidden {
                self.attribute_prune(subtree, true);
                self.charge_pruned(subtree)
            } else {
                self.assign_rf(i + 1)
            };
            if self.incremental {
                self.checker.pop_rf(&self.execution, w, r);
            }
            self.execution.rf.remove(w, r);
            res?;
        }
        Ok(())
    }

    /// Stage 3: extend location `li`'s coherence chain by one write
    /// (position `k`), lazily walking permutations with undo.
    fn assign_co(&mut self, li: usize, k: usize) -> std::result::Result<(), Stop> {
        if li == self.chains.len() {
            self.maybe_absorb(self.reads.len() + self.co_offsets[li]);
            return self.leaf();
        }
        let depth = self.reads.len() + self.co_offsets[li] + k;
        self.maybe_absorb(depth);
        let m = self.co_writes[li].len();
        if k == m {
            return self.assign_co(li + 1, 0);
        }
        if depth < self.forced.len() {
            // Stolen frontier: apply the pre-decoded swap so everything
            // below the split sees exactly the permutation prefix the
            // sequential DFS would have built; nothing is unwound.
            let pick = k + self.forced[depth];
            self.co_writes[li].swap(k, pick);
            let w = self.co_writes[li][k];
            for idx in 0..self.chains[li].len() {
                let p = self.chains[li][idx];
                self.execution.co.insert(p, w);
            }
            let verdict = if self.incremental {
                self.checker.push_co(&self.execution, &self.chains[li], w)
            } else {
                PartialVerdict::Undecided
            };
            self.chains[li].push(w);
            let subtree = fact((m - k - 1) as u64).saturating_mul(self.co_tail[li + 1]);
            let pruned = if self.incremental {
                verdict == PartialVerdict::Forbidden
            } else {
                subtree >= PRUNE_THRESHOLD
                    && self.checker.check_partial(&self.execution) == PartialVerdict::Forbidden
            };
            return if pruned {
                self.attribute_prune(self.task_charge, false);
                self.charge_pruned(self.task_charge)
            } else {
                self.assign_co(li, k + 1)
            };
        }
        for pick in k..m {
            self.co_writes[li].swap(k, pick);
            let w = self.co_writes[li][k];
            // Extend co transitively: every chain element precedes `w`.
            for idx in 0..self.chains[li].len() {
                let p = self.chains[li][idx];
                self.execution.co.insert(p, w);
            }
            let verdict = if self.incremental {
                self.checker.push_co(&self.execution, &self.chains[li], w)
            } else {
                PartialVerdict::Undecided
            };
            self.chains[li].push(w);
            let subtree = fact((m - k - 1) as u64).saturating_mul(self.co_tail[li + 1]);
            let pruned = if self.incremental {
                verdict == PartialVerdict::Forbidden
            } else {
                subtree >= PRUNE_THRESHOLD
                    && self.checker.check_partial(&self.execution) == PartialVerdict::Forbidden
            };
            let res = if pruned {
                self.attribute_prune(subtree, false);
                self.charge_pruned(subtree)
            } else {
                self.assign_co(li, k + 1)
            };
            self.chains[li].pop();
            if self.incremental {
                self.checker.pop_co(&self.execution, &self.chains[li], w);
            }
            for idx in 0..self.chains[li].len() {
                let p = self.chains[li][idx];
                self.execution.co.remove(p, w);
            }
            self.co_writes[li].swap(k, pick);
            res?;
        }
        Ok(())
    }

    /// A complete candidate: judge it and record the outcome if allowed.
    fn leaf(&mut self) -> std::result::Result<(), Stop> {
        self.charge(1)?;
        self.tick()?;

        // Outcome: registers (fixed) + observed locations (co-final).
        let mut outcome = self.reg_outcome.clone();
        for key in self.ctx.observed {
            if let StateKey::Loc(l) = key {
                let v = match self.loc_index.get(l) {
                    Some(&li) => {
                        let w = *self.chains[li].last().expect("init present");
                        self.execution.events[w.index()]
                            .val
                            .clone()
                            .expect("writes have values")
                    }
                    None => self.ctx.test.init_of(l),
                };
                outcome.set(key.clone(), v);
            }
        }
        self.execution.outcome = outcome;

        match self.checker.check(&self.execution) {
            Verdict::Allowed { flags } => {
                self.out.allowed += 1;
                self.out.flags.extend(flags);
                if self.writes_readonly {
                    self.out.crashed = true;
                }
                self.out.outcomes.insert(self.execution.outcome.clone());
                if self.ctx.config.keep_executions
                    && self.out.executions.len() < self.ctx.config.max_kept
                {
                    self.out.executions.push(self.execution.clone());
                }
            }
            Verdict::Forbidden { rule } => {
                // First-violated-rule attribution: a pure function of the
                // candidate (the checker walks its rules in source order),
                // so the merged tallies are thread-invariant — the visited
                // leaf set is.
                *self.out.rule_leaves.entry(rule).or_insert(0) += 1;
            }
        }
        Ok(())
    }
}

/// Combined event graph for one trace combination (rf/co not yet chosen).
///
/// Built **once** per combo by [`build_combined`]; the dependency
/// relations are shared (immutably) by every rf/co candidate of the combo.
pub(crate) struct Combined {
    pub(crate) events: Vec<Event>,
    /// Program order: transitive, intra-thread, init writes excluded —
    /// built in one pass over the per-thread event chains.
    pub(crate) po: Relation,
    pub(crate) rmw: Relation,
    pub(crate) addr: Relation,
    pub(crate) data: Relation,
    pub(crate) ctrl: Relation,
    /// Non-init read event ids, in id order.
    pub(crate) reads: Vec<EventId>,
    /// Writes per location (init write first), in id order.
    pub(crate) writes_by_loc: BTreeMap<Loc, Vec<EventId>>,
    /// Init write id per location.
    pub(crate) init_of: BTreeMap<Loc, EventId>,
    /// Final register file per thread.
    pub(crate) final_regs: BTreeMap<(ThreadId, Reg), Val>,
}

impl Combined {
    /// rf candidates per read: same location, same value, not po-later in
    /// the same thread (reading from one's own future violates coherence
    /// in every bundled model, so filtering it statically is sound).
    ///
    /// Returns `None` when some read has no justifying write — the combo
    /// contributes no executions at all.
    pub(crate) fn rf_candidates(&self) -> Option<Vec<Vec<EventId>>> {
        let mut rf_choices: Vec<Vec<EventId>> = Vec::with_capacity(self.reads.len());
        let empty = Vec::new();
        for &r in &self.reads {
            let re = &self.events[r.index()];
            let loc = re.loc.as_ref().expect("reads have locations");
            let val = re.val.as_ref().expect("reads have values");
            let cands: Vec<EventId> = self
                .writes_by_loc
                .get(loc)
                .unwrap_or(&empty)
                .iter()
                .copied()
                .filter(|&w| {
                    let we = &self.events[w.index()];
                    if we.val.as_ref() != Some(val) {
                        return false;
                    }
                    // Exclude same-thread po-later-or-equal writes.
                    !(we.thread == re.thread && we.po_index >= re.po_index)
                })
                .collect();
            if cands.is_empty() {
                return None;
            }
            rf_choices.push(cands);
        }
        Some(rf_choices)
    }
}

/// Builds the combo's shared event graph: events, one-pass transitive
/// `po`, dependency relations, and the read/write indices.
pub(crate) fn build_combined(test: &LitmusTest, traces: &[&Trace]) -> Combined {
    let mut events = Vec::new();
    let mut init_of = BTreeMap::new();
    let mut writes_by_loc: BTreeMap<Loc, Vec<EventId>> = BTreeMap::new();

    for (i, d) in test.locs.iter().enumerate() {
        let id = EventId(events.len() as u32);
        events.push(Event {
            id,
            thread: INIT_THREAD,
            po_index: i,
            kind: EventKind::Write,
            loc: Some(d.loc.clone()),
            val: Some(d.init.clone()),
            annot: AnnotSet::one(Annot::Init),
        });
        init_of.insert(d.loc.clone(), id);
        writes_by_loc.insert(d.loc.clone(), vec![id]);
    }

    let mut rmw = Relation::new();
    let mut addr = Relation::new();
    let mut data = Relation::new();
    let mut ctrl = Relation::new();
    let mut reads = Vec::new();
    let mut final_regs = BTreeMap::new();
    let mut po_chains: Vec<Vec<EventId>> = Vec::with_capacity(traces.len());

    for (tindex, trace) in traces.iter().enumerate() {
        let thread = ThreadId(tindex as u8);
        let base = events.len() as u32;
        let gid = |local: usize| EventId(base + local as u32);
        let mut chain = Vec::with_capacity(trace.events.len());
        for (j, te) in trace.events.iter().enumerate() {
            let id = gid(j);
            events.push(Event {
                id,
                thread,
                po_index: j,
                kind: te.kind,
                loc: te.loc.clone(),
                val: te.val.clone(),
                annot: te.annot,
            });
            match te.kind {
                EventKind::Read => reads.push(id),
                EventKind::Write => {
                    let loc = te.loc.clone().expect("writes have locations");
                    writes_by_loc.entry(loc).or_default().push(id);
                }
                EventKind::Fence => {}
            }
            chain.push(id);
        }
        po_chains.push(chain);
        for &(r, w) in &trace.rmw_pairs {
            rmw.insert(gid(r), gid(w));
        }
        for &(a, b) in &trace.addr_deps {
            addr.insert(gid(a), gid(b));
        }
        for &(a, b) in &trace.data_deps {
            data.insert(gid(a), gid(b));
        }
        for &(a, b) in &trace.ctrl_deps {
            ctrl.insert(gid(a), gid(b));
        }
        for (r, v) in &trace.final_regs {
            final_regs.insert((thread, r.clone()), v.clone());
        }
    }

    // Transitive program order, one bulk construction for all threads.
    let po = Relation::total_order(po_chains.iter().map(Vec::as_slice));

    Combined {
        events,
        po,
        rmw,
        addr,
        data,
        ctrl,
        reads,
        writes_by_loc,
        init_of,
        final_regs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AllowAll, CoherenceOnly, SeqCstRef};
    use crate::reference::simulate_reference;
    use telechat_litmus::parse_c11;

    fn sim(src: &str, model: &dyn ConsistencyModel) -> SimResult {
        let test = parse_c11(src).unwrap();
        simulate(&test, model, &SimConfig::default()).unwrap()
    }

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

    #[test]
    fn sb_has_four_outcomes_unconstrained() {
        let r = sim(SB, &AllowAll);
        // (r0,r1) in {0,1}²
        assert_eq!(r.outcomes.len(), 4);
        assert!(r.candidates >= 4);
    }

    #[test]
    fn sc_forbids_sb_weak_outcome() {
        let test = parse_c11(SB).unwrap();
        let r = simulate(&test, &SeqCstRef, &SimConfig::default()).unwrap();
        assert_eq!(r.outcomes.len(), 3, "{}", r.outcomes);
        assert!(!test.condition.holds(&r.outcomes));
        // Coherence-only allows all four.
        let r = simulate(&test, &CoherenceOnly, &SimConfig::default()).unwrap();
        assert!(test.condition.holds(&r.outcomes));
    }

    const LB: &str = r#"
C11 "LB"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_relaxed);
}
P1 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
exists (P0:r0=1 /\ P1:r0=1)
"#;

    #[test]
    fn lb_weak_outcome_needs_weak_model() {
        let test = parse_c11(LB).unwrap();
        let sc = simulate(&test, &SeqCstRef, &SimConfig::default()).unwrap();
        assert!(!test.condition.holds(&sc.outcomes), "SC forbids LB");
        assert_eq!(sc.outcomes.len(), 3);
        let weak = simulate(&test, &CoherenceOnly, &SimConfig::default()).unwrap();
        assert!(test.condition.holds(&weak.outcomes), "coherence allows LB");
        assert_eq!(weak.outcomes.len(), 4);
    }

    #[test]
    fn coherence_corr() {
        // CoRR: two reads of the same location in one thread must not see
        // values in anti-coherence order.
        let src = r#"
C11 "CoRR"
{ x = 0; }
P0 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
P1 (atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P1:r0=1 /\ P1:r1=0)
"#;
        let test = parse_c11(src).unwrap();
        let r = simulate(&test, &CoherenceOnly, &SimConfig::default()).unwrap();
        assert!(
            !test.condition.holds(&r.outcomes),
            "new-then-old read is anti-coherent: {}",
            r.outcomes
        );
        // But with no model at all the candidate exists.
        let r = simulate(&test, &AllowAll, &SimConfig::default()).unwrap();
        assert!(test.condition.holds(&r.outcomes));
    }

    #[test]
    fn rmw_atomicity_enforced() {
        // Two parallel fetch_adds must not both read 0 (one must see the
        // other) — the classic increment-atomicity test.
        let src = r#"
C11 "2+FA"
{ x = 0; }
P0 (atomic_int* x) {
  int r0 = atomic_fetch_add_explicit(x, 1, memory_order_relaxed);
}
P1 (atomic_int* x) {
  int r0 = atomic_fetch_add_explicit(x, 1, memory_order_relaxed);
}
exists (P0:r0=0 /\ P1:r0=0)
"#;
        let test = parse_c11(src).unwrap();
        let r = simulate(&test, &CoherenceOnly, &SimConfig::default()).unwrap();
        assert!(
            !test.condition.holds(&r.outcomes),
            "atomicity violated: {}",
            r.outcomes
        );
        // Final value must be 2 in every execution where both RMWs ran.
        let obs = simulate(
            &parse_c11(
                r#"
C11 "2+FA+final"
{ x = 0; }
P0 (atomic_int* x) {
  int r0 = atomic_fetch_add_explicit(x, 1, memory_order_relaxed);
}
P1 (atomic_int* x) {
  int r0 = atomic_fetch_add_explicit(x, 1, memory_order_relaxed);
}
forall ([x]=2)
"#,
            )
            .unwrap(),
            &CoherenceOnly,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(obs.outcomes.len(), 1);
    }

    #[test]
    fn observed_location_final_values() {
        let src = r#"
C11 "finals"
{ x = 0; }
P0 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
P1 (atomic_int* x) {
  atomic_store_explicit(x, 2, memory_order_relaxed);
}
exists (x=1 \/ x=2)
"#;
        let test = parse_c11(src).unwrap();
        let r = simulate(&test, &SeqCstRef, &SimConfig::default()).unwrap();
        // Both coherence orders are allowed: final x ∈ {1, 2}.
        assert_eq!(r.outcomes.len(), 2, "{}", r.outcomes);
        assert!(test.condition.holds(&r.outcomes));
    }

    #[test]
    fn crash_detection_on_const_write() {
        let src = r#"
C11 "const-write"
{ const c = 5; }
P0 (atomic_int* c) {
  atomic_store_explicit(c, 1, memory_order_relaxed);
}
exists (true)
"#;
        let test = parse_c11(src).unwrap();
        let r = simulate(&test, &AllowAll, &SimConfig::default()).unwrap();
        assert!(r.crashed, "store to const location must flag a crash");
    }

    #[test]
    fn budget_error_on_tiny_candidate_limit() {
        let test = parse_c11(SB).unwrap();
        let cfg = SimConfig {
            max_candidates: 2,
            ..SimConfig::default()
        };
        let err = simulate(&test, &AllowAll, &cfg).unwrap_err();
        assert!(err.is_exhaustion());
    }

    #[test]
    fn deterministic_results() {
        let test = parse_c11(SB).unwrap();
        let a = simulate(&test, &SeqCstRef, &SimConfig::default()).unwrap();
        let b = simulate(&test, &SeqCstRef, &SimConfig::default()).unwrap();
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.candidates, b.candidates);
    }

    #[test]
    fn keeps_executions_when_asked() {
        let test = parse_c11(SB).unwrap();
        let cfg = SimConfig::default().keeping_executions();
        let r = simulate(&test, &SeqCstRef, &cfg).unwrap();
        assert_eq!(r.executions.len() as u64, r.allowed.min(64));
        for x in &r.executions {
            assert!(!x.rf.is_empty());
        }
    }

    #[test]
    fn matches_reference_engine_exactly() {
        // The staged/pruned engine must agree with the naive oracle on
        // outcomes, candidate accounting, allowed counts and flags.
        for model in [&AllowAll as &dyn ConsistencyModel, &SeqCstRef, &CoherenceOnly] {
            for src in [SB, LB] {
                let test = parse_c11(src).unwrap();
                let cfg = SimConfig::default();
                let new = simulate(&test, model, &cfg).unwrap();
                let old = simulate_reference(&test, model, &cfg).unwrap();
                assert_eq!(new.outcomes, old.outcomes, "{} under {}", test.name, model.name());
                assert_eq!(new.candidates, old.candidates, "{}", model.name());
                assert_eq!(new.allowed, old.allowed, "{}", model.name());
                assert_eq!(new.flags, old.flags);
                assert_eq!(new.crashed, old.crashed);
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let test = parse_c11(SB).unwrap();
        let base = simulate(&test, &SeqCstRef, &SimConfig::default()).unwrap();
        for threads in [2, 4, 8] {
            let cfg = SimConfig::default().with_threads(threads);
            let r = simulate(&test, &SeqCstRef, &cfg).unwrap();
            assert_eq!(r.outcomes, base.outcomes, "threads={threads}");
            assert_eq!(r.candidates, base.candidates, "threads={threads}");
            assert_eq!(r.allowed, base.allowed, "threads={threads}");
        }
    }

    /// Three same-value writers to one location plus a reader: a single
    /// trace combo whose swap-DFS has decision arities [3, 3, 2, 1]
    /// (one rf choice of 3, then co positions 3·2·1), so intra-combo
    /// work stealing splits mid-coherence rather than only at rf.
    const WIDE_CO: &str = r#"
C11 "WIDE-CO"
{ x = 0; }
P0 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
P1 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
P2 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
P3 (atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P3:r0=1)
"#;

    #[test]
    fn work_stealing_byte_identical_results() {
        // Intra-combo work stealing (threads > combos) must reproduce the
        // sequential run byte for byte: outcomes, candidate accounting,
        // flags, crash bit AND the kept-execution list in order.
        for model in [&AllowAll as &dyn ConsistencyModel, &SeqCstRef, &CoherenceOnly] {
            for src in [SB, LB, WIDE_CO] {
                let test = parse_c11(src).unwrap();
                let base_cfg = SimConfig::default().keeping_executions();
                let base = simulate(&test, model, &base_cfg).unwrap();
                for threads in [2, 4, 8] {
                    let cfg = base_cfg.clone().with_threads(threads);
                    let r = simulate(&test, model, &cfg).unwrap();
                    let tag = format!("{} under {} threads={threads}", test.name, model.name());
                    assert_eq!(r.outcomes, base.outcomes, "{tag}");
                    assert_eq!(r.candidates, base.candidates, "{tag}");
                    assert_eq!(r.allowed, base.allowed, "{tag}");
                    assert_eq!(r.flags, base.flags, "{tag}");
                    assert_eq!(r.crashed, base.crashed, "{tag}");
                    assert_eq!(r.executions, base.executions, "{tag}");
                }
            }
        }
    }

    #[test]
    fn work_stealing_runs_no_full_traversals() {
        // Stolen frontiers replay their forced prefix and absorb it into
        // the session baseline — still zero full toposort traversals at
        // every thread count, including mid-co steal points (WIDE_CO).
        for src in [SB, LB, WIDE_CO] {
            let test = parse_c11(src).unwrap();
            for model in [&SeqCstRef as &dyn ConsistencyModel, &CoherenceOnly] {
                for threads in [1, 2, 4] {
                    let cfg = SimConfig::default().with_threads(threads);
                    let r = simulate(&test, model, &cfg).unwrap();
                    assert_eq!(
                        r.full_traversals, 0,
                        "full traversal during {} enumeration of {} at threads={threads}",
                        model.name(),
                        test.name
                    );
                }
            }
        }
    }

    #[test]
    fn po_is_transitive_with_pinned_edge_count() {
        // A thread of n events carries exactly n(n-1)/2 transitive po
        // edges; init writes carry none. Pins the one-pass construction.
        let test = parse_c11(SB).unwrap();
        let cfg = SimConfig::default();
        let traces = interpret_all_traces(&test, &cfg).unwrap();
        let combo: Vec<&Trace> = traces.iter().map(|t| &t[0]).collect();
        let combined = build_combined(&test, &combo);
        let expected: usize = combo
            .iter()
            .map(|t| t.events.len() * (t.events.len() - 1) / 2)
            .sum();
        assert_eq!(combined.po.len(), expected);
        // Transitivity: every composed edge is already present.
        let closed = combined.po.transitive_closure();
        assert_eq!(closed, combined.po);
    }

    #[test]
    fn incremental_sessions_run_no_full_traversals() {
        // The acceptance pin for the incremental acyclicity state: with the
        // built-in models' incremental combo sessions, an entire simulation
        // runs zero full Kahn/toposort traversals — partial checks AND leaf
        // checks are answered from per-edge reachability state. (The
        // counter is thread-local; threads = 1 keeps all work here.)
        for src in [SB, LB] {
            let test = parse_c11(src).unwrap();
            for model in [&SeqCstRef as &dyn ConsistencyModel, &CoherenceOnly] {
                let before = crate::rel::full_traversals();
                simulate(&test, model, &SimConfig::default()).unwrap();
                assert_eq!(
                    crate::rel::full_traversals(),
                    before,
                    "full traversal during {} enumeration of {}",
                    model.name(),
                    test.name
                );
            }
        }
    }

    /// A model wrapper that counts the sessions the enumerator opens.
    struct CountingModel<M> {
        inner: M,
        opened: std::sync::atomic::AtomicUsize,
    }

    impl<M> CountingModel<M> {
        fn new(inner: M) -> CountingModel<M> {
            CountingModel {
                inner,
                opened: std::sync::atomic::AtomicUsize::new(0),
            }
        }

        fn opened(&self) -> usize {
            self.opened.load(Ordering::Relaxed)
        }
    }

    impl<M: ConsistencyModel> ConsistencyModel for CountingModel<M> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn check(&self, execution: &Execution) -> Verdict {
            self.inner.check(execution)
        }

        fn check_partial(&self, partial: &Execution) -> PartialVerdict {
            self.inner.check_partial(partial)
        }

        fn combo_checker<'a>(&'a self, skeleton: &Execution) -> Box<dyn ComboChecker + 'a> {
            self.opened.fetch_add(1, Ordering::Relaxed);
            self.inner.combo_checker(skeleton)
        }
    }

    const MP: &str = r#"
C11 "MP"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_relaxed);
}
P1 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P1:r0=1 /\ P1:r1=0)
"#;

    /// A message-passing chain through control dependencies: P0's and
    /// P1's stores exist only on the branch where their read saw 1, so
    /// both threads have two trace shapes and the combos alternate
    /// between skeletons; P2 adds a value-only fork.
    const ISA2_CTRL: &str = r#"
C11 "ISA2+ctrls"
{ x = 0; y = 0; z = 0; }
P0 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  if (r0 == 1) {
    atomic_store_explicit(y, 1, memory_order_relaxed);
  }
}
P1 (atomic_int* y, atomic_int* z) {
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
  if (r0 == 1) {
    atomic_store_explicit(z, 1, memory_order_relaxed);
  }
}
P2 (atomic_int* x, atomic_int* z) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  int r0 = atomic_load_explicit(z, memory_order_relaxed);
}
exists (P0:r0=1 /\ P1:r0=1 /\ P2:r0=0)
"#;

    #[test]
    fn shape_ids_ignore_values_but_not_control_flow() {
        let cfg = SimConfig::default();
        // MP's reader forks on both loads' values: four traces, one shape.
        let mp = interpret_all_traces(&parse_c11(MP).unwrap(), &cfg).unwrap();
        assert_eq!(mp[1].len(), 4);
        assert_eq!(shape_ids(&mp[1]), vec![0; 4]);
        // A branch on a read value changes the event list: two shapes;
        // P2's fork on a read value alone does not.
        let isa2 = interpret_all_traces(&parse_c11(ISA2_CTRL).unwrap(), &cfg).unwrap();
        assert_eq!(shape_ids(&isa2[0]), vec![0, 1]);
        assert_eq!(shape_ids(&isa2[1]), vec![0, 1]);
        assert_eq!(shape_ids(&isa2[2]), vec![0, 0]);
    }

    /// Simulates `src` at `threads` under a counting wrapper of `model`,
    /// checks the result against the reference oracle, and returns the
    /// number of sessions opened.
    fn sessions_opened<M: ConsistencyModel>(src: &str, model: M, threads: usize) -> usize {
        let test = parse_c11(src).unwrap();
        let model = CountingModel::new(model);
        let cfg = SimConfig::default().with_threads(threads);
        let new = simulate(&test, &model, &cfg).unwrap();
        let opened = model.opened();
        let old = simulate_reference(&test, &model.inner, &cfg).unwrap();
        let tag = format!("{} under {} threads={threads}", test.name, model.name());
        assert_eq!(new.outcomes, old.outcomes, "{tag}");
        assert_eq!(new.candidates, old.candidates, "{tag}");
        assert_eq!(new.allowed, old.allowed, "{tag}");
        assert_eq!(new.flags, old.flags, "{tag}");
        assert_eq!(new.crashed, old.crashed, "{tag}");
        opened
    }

    #[test]
    fn value_only_combos_share_one_session() {
        // MP's four combos differ only in the values P1 reads, so one
        // session serves them all.
        let combos: usize = interpret_all_traces(&parse_c11(MP).unwrap(), &SimConfig::default())
            .unwrap()
            .iter()
            .map(Vec::len)
            .product();
        assert_eq!(combos, 4);
        assert_eq!(sessions_opened(MP, AllowAll, 1), 1);
        assert_eq!(sessions_opened(MP, SeqCstRef, 1), 1);
        assert_eq!(sessions_opened(MP, CoherenceOnly, 1), 1);
    }

    #[test]
    fn alternating_skeletons_each_keep_their_session() {
        // ISA2_CTRL's combos cycle through 2 × 2 skeletons (thread 0 varies
        // fastest), so sessions are looked up by key rather than kept for
        // the latest combo only. At threads = 1 exactly one is opened per
        // skeleton with a justifiable combo: three, since P1's taken
        // branch reads y = 1, which only P0's taken branch writes.
        let traces =
            interpret_all_traces(&parse_c11(ISA2_CTRL).unwrap(), &SimConfig::default()).unwrap();
        let skeletons: usize = traces
            .iter()
            .map(|t| shape_ids(t).into_iter().collect::<BTreeSet<_>>().len())
            .product();
        let combos: usize = traces.iter().map(Vec::len).product();
        assert_eq!(skeletons, 4);
        assert!(combos > skeletons, "{combos} combos");
        for threads in [1, 2] {
            for opened in [
                sessions_opened(ISA2_CTRL, SeqCstRef, threads),
                sessions_opened(ISA2_CTRL, CoherenceOnly, threads),
            ] {
                assert!((1..=skeletons * threads).contains(&opened), "{opened}");
                if threads == 1 {
                    assert_eq!(opened, 3);
                }
            }
        }
    }

    #[test]
    fn pruning_accounts_skipped_candidates() {
        // Under SeqCstRef (which prunes) the candidate count must still
        // equal the exhaustive product — pruning trades time, not
        // accounting.
        let test = parse_c11(LB).unwrap();
        let with_pruning = simulate(&test, &SeqCstRef, &SimConfig::default()).unwrap();
        let exhaustive = simulate(&test, &AllowAll, &SimConfig::default()).unwrap();
        assert_eq!(with_pruning.candidates, exhaustive.candidates);
    }
}
