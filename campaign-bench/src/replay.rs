//! The traced replay: a campaign's work items re-run on one thread
//! through the public functions `Telechat::run` composes, with one span
//! per call recorded from outside the library.
//!
//! Span tree per item:
//!
//! ```text
//! item ─┬─ journal.replay                      (journaled items stop here)
//!       ├─ l2c.prepare        SimCache::prepared
//!       ├─ compiler.compile   Compiler::compile
//!       ├─ s2l.extract        StateMapping::build + s2l::object_to_litmus
//!       ├─ <source leg>       SimCache::source_leg
//!       ├─ <target leg>       ModelRegistry::for_arch + SimCache::target_leg
//!       └─ mcompare.compare   mcompare_shared
//! ```
//!
//! A leg span is named after what the call did, read from the cache's own
//! counters around it: `exec.*_sim` when it simulated, `persist.*_read`
//! when the store answered, `cache.*_hit` when memory did. An item's self
//! time (its duration minus its children's) is the residual the layers do
//! not explain. Beside each simulated leg, outside the item, a
//! `trace.interp` span re-runs the thread interpretation `simulate` starts
//! with (`value_pools` + `interpret_thread`) to count trace combinations.

use crate::reference::Reference;
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;
use telechat::journal::profile_fingerprint;
use telechat::{
    mcompare_shared, object_to_litmus, CacheStats, CampaignJournal, ItemKey, ItemOutcome,
    PipelineConfig, S2lOptions, SimCache, StateMapping, TestVerdict,
};
use telechat_cat::{CatModel, ModelRegistry};
use telechat_common::{Error, ThreadId};
use telechat_compiler::Compiler;
use telechat_exec::{interpret_thread, value_pools, InterpBudget, SimConfig, SimResult};
use telechat_litmus::LitmusTest;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since the replay began.
    pub start_ns: u64,
    /// End, ns since the replay began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The work item the span belongs to.
    pub item: usize,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span sink; spans are written out once the replay ends.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str, item: usize) -> usize {
        let span = Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            item,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `idx`, renaming it to what the call turned out to be.
    fn exit_as(&mut self, idx: usize, name: &'static str) {
        let end = self.now();
        assert_eq!(self.open.pop(), Some(idx), "spans close in LIFO order");
        self.spans[idx].end_ns = end;
        self.spans[idx].name = name;
    }

    fn time<T>(&mut self, name: &'static str, item: usize, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name, item);
        let out = f();
        self.exit_as(idx, name);
        out
    }
}

/// What simulating one leg did, for the `trace`/`exec` counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimTally {
    /// Legs simulated.
    pub sims: u64,
    /// Trace combinations (product of complete, deduplicated per-thread
    /// traces).
    pub combos: u64,
    /// Combos whose DFS charged zero candidates.
    pub empty_combos: u64,
    /// Candidate executions examined.
    pub candidates: u64,
    /// Candidates accounted by pruned subtrees.
    pub pruned: u64,
}

/// One replayed work item.
#[derive(Debug, Clone)]
pub struct ItemRow {
    /// Test name.
    pub test: String,
    /// Compiler profile name.
    pub profile: String,
    /// Item duration, ns.
    pub ns: u64,
    /// Self time by layer, ns (`pipeline.residual` is the item's own).
    pub layers: BTreeMap<&'static str, u64>,
    /// Trace combinations of the legs this item simulated (source, target).
    pub combos: (u64, u64),
}

/// Everything the replay measured.
pub struct Replay {
    /// Every span, in start order.
    pub spans: Vec<Span>,
    /// Every item, in replay order.
    pub items: Vec<ItemRow>,
    /// The replayed campaign, folded like the reference.
    pub result: Reference,
    /// Items whose replayed verdict differs from the campaign's.
    pub mismatches: usize,
    /// Items whose child spans do not lie inside them one after another,
    /// so that their layer self times plus residual would not be their
    /// duration.
    pub unbalanced: usize,
    /// Source-leg simulation tally.
    pub source: SimTally,
    /// Target-leg simulation tally.
    pub target: SimTally,
}

impl Replay {
    /// Self time and call count per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&covered) {
            let e = out.entry(s.name).or_default();
            e.0 += s.ns().saturating_sub(*c);
            e.1 += 1;
        }
        out
    }

    /// Writes the spans as JSON lines.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"item\":{}}}",
                s.name, s.start_ns, s.end_ns, s.item
            )?;
        }
        w.flush()
    }
}

/// The replay's inputs: the campaign's tests in pull order, its profiles,
/// and the state the campaign started from.
pub struct ReplayInput<'a> {
    /// Tests in the order the campaign pulled them.
    pub tests: &'a [LitmusTest],
    /// The campaign's source model.
    pub source_model: &'a str,
    /// Profiles in sweep order.
    pub profiles: &'a [Compiler],
    /// Pipeline configuration (the campaign's).
    pub config: &'a PipelineConfig,
    /// The cache the replay runs on (store-backed for `store_resume`).
    pub cache: Arc<SimCache>,
    /// The journal to replay completed items from, if the campaign had one.
    pub journal: Option<Arc<CampaignJournal>>,
    /// The campaign's per-item outcomes, to check each replayed verdict.
    pub campaign: &'a HashMap<ItemKey, ItemOutcome>,
    /// The input-set fingerprint, for the folded result.
    pub set_fnv: u64,
}

/// Replays every item of `input` on this thread.
pub fn replay(input: &ReplayInput<'_>) -> Replay {
    let mut config = input.config.clone();
    // As the campaign runs its simulations with more than one worker.
    config.sim.threads = 1;
    let source_model = ModelRegistry::global()
        .bundled(input.source_model)
        .expect("the campaign loaded its source model");
    let mut rec = Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    };
    let mut out = Replay {
        spans: Vec::new(),
        items: Vec::new(),
        result: Reference::empty(input.set_fnv),
        mismatches: 0,
        unbalanced: 0,
        source: SimTally::default(),
        target: SimTally::default(),
    };
    let profile_fps: Vec<u64> = input
        .profiles
        .iter()
        .map(|c| profile_fingerprint(&c.profile_name()))
        .collect();
    for test in input.tests {
        out.result.source_tests += 1;
        let tfp = test.fingerprint();
        for (compiler, pfp) in input.profiles.iter().zip(&profile_fps) {
            let id = out.items.len();
            let first_span = rec.spans.len();
            let key = ItemKey {
                test: tfp,
                profile: *pfp,
            };
            let item = rec.enter("item", id);
            let journaled = input.journal.as_ref().and_then(|j| {
                rec.time("journal.replay", id, || j.replay(&key))
                    .map(|r| r.outcome)
            });
            let (outcome, sims) = match journaled {
                Some(outcome) => (outcome, Vec::new()),
                None => {
                    let mut legs = Legs {
                        rec: &mut rec,
                        cache: &input.cache,
                        config: &config,
                        source_model: &source_model,
                        item: id,
                        sims: Vec::new(),
                    };
                    let verdict = legs.run(test, compiler);
                    (bin(verdict, test, compiler), legs.sims)
                }
            };
            rec.exit_as(item, "item");
            let mut combos = (0, 0);
            for (is_source, simulated, sim) in sims {
                let n = interp_combos(&mut rec, id, &simulated, &config.sim);
                let tally = if is_source {
                    combos.0 += n;
                    &mut out.source
                } else {
                    combos.1 += n;
                    &mut out.target
                };
                tally.sims += 1;
                tally.combos += n;
                tally.empty_combos += sim.combo_candidates.buckets()[0];
                tally.candidates += sim.candidates;
                tally.pruned += sim.pruned_candidates;
            }
            if input.campaign.get(&key) != Some(&outcome) {
                out.mismatches += 1;
            }
            out.result.add(
                compiler.target.arch,
                compiler.id.family,
                compiler.opt,
                &outcome,
            );
            let (row, balanced) = item_row(&rec.spans, first_span, item, test, compiler, combos);
            out.unbalanced += usize::from(!balanced);
            out.items.push(row);
        }
    }
    out.spans = rec.spans;
    out
}

/// The layer split of one item: each child's self time by name, plus the
/// item's own self time as `pipeline.residual`, so the split sums to the
/// item's duration. The item balances when its children lie inside it one
/// after another, which is what makes that residual a true self time.
fn item_row(
    spans: &[Span],
    first: usize,
    item: usize,
    test: &LitmusTest,
    compiler: &Compiler,
    combos: (u64, u64),
) -> (ItemRow, bool) {
    let parent = &spans[item];
    let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut children, mut cursor, mut balanced) = (0, parent.start_ns, true);
    for s in spans[first..].iter().filter(|s| s.parent == Some(item)) {
        balanced &= cursor <= s.start_ns && s.end_ns <= parent.end_ns;
        cursor = s.end_ns;
        *layers.entry(s.name).or_default() += s.ns();
        children += s.ns();
    }
    let residual = parent.ns().checked_sub(children);
    layers.insert("pipeline.residual", residual.unwrap_or(0));
    let row = ItemRow {
        test: test.name.clone(),
        profile: compiler.profile_name(),
        ns: parent.ns(),
        layers,
        combos,
    };
    (row, balanced && residual.is_some())
}

/// The per-item pipeline, call by call.
struct Legs<'a> {
    rec: &'a mut Recorder,
    cache: &'a SimCache,
    config: &'a PipelineConfig,
    source_model: &'a CatModel,
    item: usize,
    /// Legs this item simulated: (source?, the simulated test, result).
    sims: Vec<(bool, LitmusTest, Arc<SimResult>)>,
}

impl Legs<'_> {
    /// `Telechat::run` for one item, as separately timed calls.
    fn run(&mut self, test: &LitmusTest, compiler: &Compiler) -> Result<TestVerdict, Error> {
        let id = self.item;
        let cache = self.cache;
        let config = self.config;
        let prepared = self
            .rec
            .time("l2c.prepare", id, || cache.prepared(test, config.augment));
        let compiled = self
            .rec
            .time("compiler.compile", id, || compiler.compile(&prepared.test))?;
        let (mapping, target) = self.rec.time("s2l.extract", id, || {
            let mapping = StateMapping::build(
                prepared.observed_keys.iter().cloned(),
                &prepared.augmented,
                &compiled.reg_map,
            );
            let name = format!("{}.{}", compiled.profile, test.name);
            object_to_litmus(
                &compiled.object,
                &name,
                &test.condition,
                &test.observed,
                &mapping,
                S2lOptions {
                    optimise: config.optimise,
                },
            )
            .map(|(_, litmus)| (mapping, litmus))
        })?;

        let span = self.rec.enter("source_leg", id);
        let before = cache.stats();
        let source = cache.source_leg(&prepared, self.source_model, &config.sim);
        let name = leg_name(before, cache.stats(), true);
        self.rec.exit_as(span, name);
        let source = source?;
        if name == "exec.source_sim" {
            self.sims
                .push((true, prepared.test.clone(), source.result.clone()));
        }

        let span = self.rec.enter("target_leg", id);
        let before = cache.stats();
        let target_result = ModelRegistry::global()
            .for_arch(target.arch)
            .and_then(|model| cache.target_leg(&target, &model, &config.sim));
        let name = leg_name(before, cache.stats(), false);
        self.rec.exit_as(span, name);
        let target_result = target_result?;
        if name == "exec.target_sim" {
            self.sims.push((false, target, target_result.clone()));
        }

        let cmp = self.rec.time("mcompare.compare", id, || {
            mcompare_shared(&source.observables, &target_result.outcomes, &mapping)
        });
        Ok(if source.result.has_flag("race") {
            TestVerdict::SourceRace
        } else if target_result.crashed {
            TestVerdict::RuntimeCrash
        } else if !cmp.positive.is_empty() {
            TestVerdict::PositiveDifference
        } else if !cmp.negative.is_empty() {
            TestVerdict::NegativeDifference
        } else {
            TestVerdict::Pass
        })
    }
}

/// Names a leg span after what the cache counters say the call did.
fn leg_name(before: CacheStats, after: CacheStats, source: bool) -> &'static str {
    let (misses_before, misses_after) = if source {
        (before.source_misses, after.source_misses)
    } else {
        (before.target_misses, after.target_misses)
    };
    let computed = misses_after > misses_before;
    let from_disk = after.disk_hits > before.disk_hits;
    match (source, computed, from_disk) {
        (true, true, false) => "exec.source_sim",
        (true, true, true) => "persist.source_read",
        (true, false, _) => "cache.source_hit",
        (false, true, false) => "exec.target_sim",
        (false, true, true) => "persist.target_read",
        (false, false, _) => "cache.target_hit",
    }
}

/// Bins a verdict as the campaign driver does.
fn bin(verdict: Result<TestVerdict, Error>, test: &LitmusTest, compiler: &Compiler) -> ItemOutcome {
    match verdict {
        Ok(TestVerdict::Pass) => ItemOutcome::Pass,
        Ok(TestVerdict::NegativeDifference) => ItemOutcome::Negative,
        Ok(TestVerdict::PositiveDifference) => ItemOutcome::Positive {
            test: test.name.clone(),
            profile: compiler.profile_name(),
        },
        Ok(TestVerdict::RuntimeCrash) => ItemOutcome::Crashed,
        Ok(TestVerdict::SourceRace) => ItemOutcome::Racy,
        Err(_) => ItemOutcome::Error,
    }
}

/// Re-runs the thread interpretation `simulate` starts with, under a
/// `trace.interp` span of its own, and returns the number of trace
/// combinations the enumerator then walks (0 if interpretation fails).
fn interp_combos(rec: &mut Recorder, item: usize, test: &LitmusTest, sim: &SimConfig) -> u64 {
    rec.time("trace.interp", item, || {
        let mut budget = InterpBudget::new(sim.max_steps);
        let Ok(pools) = value_pools(test, sim.unroll, sim.max_pool_iters, &mut budget) else {
            return 0;
        };
        let mut combos = 1u64;
        for t in 0..test.threads.len() {
            let thread = ThreadId(u8::try_from(t).expect("litmus tests have few threads"));
            let Ok(mut traces) = interpret_thread(
                test,
                thread,
                &pools,
                sim.unroll,
                sim.excl_fail_paths,
                &mut budget,
            ) else {
                return 0;
            };
            traces.retain(|tr| tr.complete);
            traces.dedup();
            combos = combos.saturating_mul(traces.len() as u64);
        }
        combos
    })
}
