//! The large-scale differential-testing campaign driver (paper §IV-D,
//! Tables III/IV): run a test suite through many compiler profiles in
//! parallel and tabulate positive/negative differences.
//!
//! Tests come from a [`TestSource`] — a streaming supplier that unifies
//! fixed suites (slices, `Vec`s), `telechat_diy::Config` sweeps (via their
//! iterators) and generative fuzz streams (`telechat-fuzz`), so a campaign
//! can consume an unbounded generator without materialising it first.

use crate::cache::{lock_unpoisoned, CacheStats, Gate, SimCache, Waker};
use crate::fault::EngineFaults;
use crate::journal::{CampaignJournal, ItemKey, ItemOutcome, ItemRecord, JournalStats, ShardSpec};
use crate::persist::PersistStore;
use crate::pipeline::{Continuation, LegRun, PipelineConfig, Telechat, TestReport, TestVerdict};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use telechat_common::{Arch, Error, Result};
use telechat_compiler::{Compiler, CompilerFamily, CompilerId, OptLevel, Target};
use telechat_exec::Deadline;
use telechat_litmus::LitmusTest;
use telechat_obs::Recorder;

/// A streaming supplier of litmus tests for a campaign.
///
/// The campaign driver pulls tests one at a time (under a lock, in a fixed
/// order), so a source's output — and therefore the whole campaign result —
/// is independent of how many worker threads consume it. Any
/// `Iterator<Item = LitmusTest>` that is `Send` is a source, which covers
/// fixed suites (`suite.iter().cloned()`), `Config::generate().into_iter()`
/// sweeps and the `telechat-fuzz` generators.
pub trait TestSource: Send {
    /// The next test, or `None` when the stream is exhausted.
    fn next_test(&mut self) -> Option<LitmusTest>;
}

impl<I> TestSource for I
where
    I: Iterator<Item = LitmusTest> + Send,
{
    fn next_test(&mut self) -> Option<LitmusTest> {
        self.next()
    }
}

/// What to sweep (paper Table III: constructs × compiler × flags × arch).
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Compilers under test.
    pub compilers: Vec<CompilerId>,
    /// Optimisation levels (unsupported family/level pairs are skipped,
    /// like clang `-Og` in Table IV).
    pub opts: Vec<OptLevel>,
    /// Targets.
    pub targets: Vec<Target>,
    /// Source model name (`rc11`, or `rc11-lb` for the no-LB rerun).
    pub source_model: String,
    /// Campaign worker threads (tests × profiles are sharded over these).
    ///
    /// Composes with the exec-level [`telechat_exec::SimConfig::threads`]
    /// without oversubscription: when the campaign itself runs more than
    /// one worker, `run_campaign` forces each simulation to a single
    /// enumeration thread (many small simulations parallelise better
    /// across tests than within one); a single-worker campaign keeps the
    /// configured per-simulation parallelism.
    pub threads: usize,
    /// Enable the campaign-scale sharing layer ([`SimCache`]): the source
    /// leg of each test simulates once per campaign instead of once per
    /// profile, identical extracted code collapses to one target
    /// simulation, and `l2c::prepare` runs once per test. Results are
    /// cache-invariant — cells, positive list and accounting are
    /// byte-identical to the uncached driver (pinned by
    /// `tests/campaign_cache.rs`); [`CampaignResult::cache`] reports the
    /// traffic.
    pub cache: bool,
    /// Optional persistent store ([`crate::persist`]) attached under the
    /// sharing layer as a write-through tier: legs computed by this
    /// campaign are logged to disk, and a warm rerun (same process or not)
    /// answers them from the log instead of simulating. Implies `cache`.
    /// Store contents never change results — a store-backed campaign is
    /// byte-identical to the uncached driver, including after crashes and
    /// log corruption (recovery drops damaged records, which simply
    /// recompute).
    pub store: Option<Arc<PersistStore>>,
    /// Collect telemetry ([`telechat_obs`]): a span trace of the whole
    /// campaign plus the unified metrics registry, snapshotted into
    /// [`CampaignResult::obs`]. It records into the calling thread's open
    /// [`Recorder`] window (so a caller can watch it live) or else its own,
    /// never another campaign's, and closes the window when it returns.
    /// Off (the default) is a true no-op — one thread-local check per
    /// instrumentation point — and never changes results either way; the
    /// deterministic (`count`-class) metric totals are themselves
    /// byte-identical across worker counts, cache on/off and store
    /// warm/cold.
    pub metrics: bool,
    /// Optional work-item completion journal ([`crate::journal`]): every
    /// finished `(test, profile)` item is logged, completed items replay
    /// from the log on a rerun instead of recomputing, and the final
    /// result is byte-identical to an uninterrupted run — a killed
    /// campaign resumes where it died. The journal must have been opened
    /// under this campaign's fingerprint and `shard`.
    pub journal: Option<Arc<CampaignJournal>>,
    /// Run only one hash-partition of the work-item space
    /// ([`ItemKey::shard`]): shard `i/N` campaigns on N machines cover the
    /// space exactly once, and [`crate::journal::merge_journals`] folds
    /// their journals back into the unsharded result. `None` (or `0/1`)
    /// runs everything. Accounting totals (`source_tests`,
    /// `compiled_tests`) still describe the full stream — cells hold only
    /// this shard's items.
    pub shard: Option<ShardSpec>,
    /// Injected engine faults (failure-isolation tests only; `None` in
    /// production): the plan every simulation leg of this campaign
    /// consults, and the supervised-retry schedule for work items whose
    /// failure it marks transient ([`EngineFaults::take_transient`]).
    pub faults: Option<EngineFaults>,
}

impl Default for CampaignSpec {
    /// An empty sweep with the production defaults: sharing layer on, no
    /// store/journal/shard, single worker, no injected faults.
    fn default() -> CampaignSpec {
        CampaignSpec {
            compilers: Vec::new(),
            opts: Vec::new(),
            targets: Vec::new(),
            source_model: "rc11".into(),
            threads: 1,
            cache: true,
            store: None,
            metrics: false,
            journal: None,
            shard: None,
            faults: None,
        }
    }
}

impl CampaignSpec {
    /// The paper's Table IV sweep over the six architectures, with the
    /// artefact's compilers.
    pub fn table_iv(source_model: &str) -> CampaignSpec {
        CampaignSpec {
            compilers: vec![CompilerId::llvm(11), CompilerId::gcc(10)],
            opts: OptLevel::CAMPAIGN.to_vec(),
            targets: Arch::TARGETS.iter().map(|&a| Target::new(a)).collect(),
            source_model: source_model.to_string(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            ..CampaignSpec::default()
        }
    }

    /// The applicable compiler profiles, in sweep order (targets ×
    /// compilers × opts, unsupported family/level pairs skipped). This
    /// order defines the work-item space — the campaign driver, the
    /// campaign fingerprint and the shard partition all derive from it.
    pub fn profiles(&self) -> Vec<Compiler> {
        let mut profiles = Vec::new();
        for target in &self.targets {
            for id in &self.compilers {
                for &opt in &self.opts {
                    if opt.supported_by(id.family) {
                        profiles.push(Compiler::new(*id, opt, *target));
                    }
                }
            }
        }
        profiles
    }
}

/// One cell of the campaign table: a (target, family, level) combination.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignCell {
    /// Tests with positive differences (`+ve`).
    pub positive: usize,
    /// Tests with negative differences (`-ve`).
    pub negative: usize,
    /// Exact-match passes.
    pub pass: usize,
    /// Run-time crashes.
    pub crashed: usize,
    /// Racy sources, discounted.
    pub racy: usize,
    /// Pipeline errors (timeouts, unsupported constructs).
    pub errors: usize,
}

impl CampaignCell {
    /// Total tests binned into this cell.
    pub fn total(&self) -> usize {
        self.positive + self.negative + self.pass + self.crashed + self.racy + self.errors
    }
}

/// Aggregated campaign results.
#[derive(Debug, Clone, Default)]
pub struct CampaignResult {
    /// Cells keyed by (architecture, compiler family, optimisation level).
    pub cells: BTreeMap<(Arch, CompilerFamily, OptLevel), CampaignCell>,
    /// Number of source tests.
    pub source_tests: usize,
    /// Number of compiled tests produced (tests × applicable profiles).
    pub compiled_tests: usize,
    /// `(test name, compiler profile)` of every positive difference, sorted
    /// — the work-list a fuzzing campaign hands to the minimizer.
    pub positive_tests: Vec<(String, String)>,
    /// Sharing-layer traffic (all zero for an uncached campaign). Every
    /// counter is a pure function of the work list — independent of worker
    /// count and scheduling — because the cache computes each distinct key
    /// exactly once.
    pub cache: CacheStats,
    /// Persistent-store traffic, when a store was attached.
    pub store: Option<crate::persist::StoreStats>,
    /// Work-item journal traffic, when a journal was attached: recovered/
    /// replayed/appended item counts and the degraded-mode flags.
    pub journal: Option<JournalStats>,
    /// The telemetry snapshot, when [`CampaignSpec::metrics`] was set:
    /// counters, per-phase wall time and the normalised span trace.
    pub obs: Option<telechat_obs::ObsReport>,
}

impl CampaignResult {
    /// Sum of positive differences across all cells.
    pub fn total_positive(&self) -> usize {
        self.cells.values().map(|c| c.positive).sum()
    }

    /// Sum of negative differences across all cells.
    pub fn total_negative(&self) -> usize {
        self.cells.values().map(|c| c.negative).sum()
    }

    /// The cell for a combination, if populated.
    pub fn cell(&self, arch: Arch, family: CompilerFamily, opt: OptLevel) -> Option<&CampaignCell> {
        self.cells.get(&(arch, family, opt))
    }

    /// Every metric row of this campaign — telemetry counters and phase
    /// times (when collected), cache traffic, store traffic and derived
    /// rates — in the one shape [`telechat_obs::render_metrics`] renders.
    /// Rows tagged `count` are deterministic: byte-identical across worker
    /// counts, cache on/off and store warm/cold; `sched`/`proc`/`time`/
    /// `rate` rows are honest about depending on scheduling, process
    /// history or the clock.
    pub fn metric_rows(&self) -> Vec<telechat_obs::MetricRow> {
        use telechat_obs::MetricRow;
        let count = |name: &str, value: u64| MetricRow {
            kind: "count",
            name: name.to_string(),
            value: value.to_string(),
        };
        let rate = |name: &str, value: String| MetricRow {
            kind: "rate",
            name: name.to_string(),
            value,
        };
        let ratio = |part: u64, whole: u64| {
            if whole == 0 {
                "-".to_string()
            } else {
                format!("{:.1}%", part as f64 * 100.0 / whole as f64)
            }
        };

        let mut rows = Vec::new();
        if let Some(obs) = &self.obs {
            rows.extend(obs.rows());
            if let (Some(pruned), Some(cand)) = (
                obs.counter("sim.pruned_candidates"),
                obs.counter("sim.candidates"),
            ) {
                rows.push(rate("sim.prune_ratio", ratio(pruned, cand)));
            }
            let campaign_ns = obs.phase_ns("campaign");
            if campaign_ns > 0 {
                let per_s = self.compiled_tests as f64 / (campaign_ns as f64 / 1e9);
                rows.push(rate("campaign.tests_per_s", format!("{per_s:.1}")));
            }
        }
        if self.cache.any() {
            let c = &self.cache;
            rows.push(count("cache.prepare.hits", c.prepare_hits));
            rows.push(count("cache.prepare.misses", c.prepare_misses));
            rows.push(count("cache.source.hits", c.source_hits));
            rows.push(count("cache.source.misses", c.source_misses));
            rows.push(count("cache.target.hits", c.target_hits));
            rows.push(count("cache.target.misses", c.target_misses));
            if c.disk_hits > 0 || c.disk_writes > 0 {
                rows.push(count("cache.disk.hits", c.disk_hits));
                rows.push(count("cache.disk.writes", c.disk_writes));
            }
            rows.push(rate(
                "cache.source.hit_rate",
                ratio(c.source_hits, c.source_hits + c.source_misses),
            ));
            rows.push(rate(
                "cache.target.hit_rate",
                ratio(c.target_hits, c.target_hits + c.target_misses),
            ));
        }
        if let Some(s) = &self.store {
            rows.push(count("store.recovered", s.recovered));
            rows.push(count("store.appends", s.appends));
            rows.push(count("store.write_errors", s.write_errors));
            if s.dropped_bytes > 0 {
                rows.push(count("store.dropped_bytes", s.dropped_bytes));
            }
            if s.reset {
                rows.push(count("store.reset", 1));
            }
            if s.read_only {
                rows.push(count("store.read_only", 1));
            }
        }
        if let Some(j) = &self.journal {
            rows.push(count("journal.recovered", j.recovered));
            rows.push(count("journal.replayed", j.replayed));
            rows.push(count("journal.appends", j.appends));
            rows.push(count("journal.write_errors", j.write_errors));
            if j.dropped_bytes > 0 {
                rows.push(count("journal.dropped_bytes", j.dropped_bytes));
            }
            if j.reset {
                rows.push(count("journal.reset", 1));
            }
            if j.read_only {
                rows.push(count("journal.read_only", 1));
            }
        }
        rows
    }
}

impl fmt::Display for CampaignResult {
    /// Renders the Table IV layout: one row pair (+ve / -ve) per
    /// architecture, `clang/gcc` columns per optimisation level.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let opts = [
            OptLevel::O1,
            OptLevel::O2,
            OptLevel::O3,
            OptLevel::Ofast,
            OptLevel::Og,
        ];
        writeln!(
            f,
            "{:22} {:>13} {:>13} {:>13} {:>13} {:>13}",
            "", "-O1", "-O2", "-O3", "-Ofast", "-Og"
        )?;
        let archs: Vec<Arch> = {
            let mut seen = Vec::new();
            for (a, _, _) in self.cells.keys() {
                if !seen.contains(a) {
                    seen.push(*a);
                }
            }
            seen
        };
        for arch in archs {
            writeln!(f, "{arch} clang/gcc")?;
            for (label, pick) in [("+ve", 0usize), ("-ve", 1usize)] {
                write!(f, "  {label:20}")?;
                for opt in opts {
                    let get = |fam| {
                        self.cell(arch, fam, opt).map(|c| {
                            if pick == 0 {
                                c.positive
                            } else {
                                c.negative
                            }
                        })
                    };
                    let clang = get(CompilerFamily::Llvm)
                        .map(|v| v.to_string())
                        .unwrap_or_else(|| "-".into());
                    let gcc = get(CompilerFamily::Gcc)
                        .map(|v| v.to_string())
                        .unwrap_or_else(|| "-".into());
                    write!(f, " {:>13}", format!("{clang}/{gcc}"))?;
                }
                writeln!(f)?;
            }
        }
        writeln!(
            f,
            "total: {} source tests, {} compiled tests, {} +ve, {} -ve",
            self.source_tests,
            self.compiled_tests,
            self.total_positive(),
            self.total_negative()
        )?;
        // One renderer for every stat family (cache, store, telemetry) —
        // previously cache and store printed two ad-hoc formats.
        let rows = self.metric_rows();
        if !rows.is_empty() {
            writeln!(f, "metrics:")?;
            write!(f, "{}", telechat_obs::render_metrics(&rows))?;
        }
        Ok(())
    }
}

/// Runs the campaign over a fixed suite: every test × every applicable
/// profile, in parallel. Convenience wrapper over [`run_campaign_source`].
///
/// # Errors
///
/// Fails only on configuration errors (unknown source model); per-test
/// failures are counted in the cells' `errors`.
pub fn run_campaign(
    tests: &[LitmusTest],
    spec: &CampaignSpec,
    config: &PipelineConfig,
) -> Result<CampaignResult> {
    run_campaign_source(&mut tests.iter().cloned(), spec, config)
}

/// Runs the campaign over a streaming [`TestSource`]: every supplied test ×
/// every applicable profile, sharded over `spec.threads` workers. The work
/// item is one `(test, profile)` pair, so parallelism is not capped by the
/// test count even for few-tests × many-profiles sweeps.
///
/// **Hit-aware scheduling.** With the sharing layer on (`spec.cache`), a
/// pulled test fans out *source-leg-first*: one **lead** item (the first
/// profile) enters the frontier immediately, and its worker warms the
/// test's prepare + source-leg cache entries with the **follower** items
/// (the remaining profiles) parked on the source leg's gate. Meanwhile
/// other workers pull *other tests'* leads, so with `N` workers, `N`
/// distinct source legs simulate concurrently instead of `N` workers racing
/// on one. The gate hands the followers back to the *front* of the
/// frontier as soon as the leg is ready — before the lead's own
/// compile/extract/target work — so they run while the entry is hot, their
/// compiles in parallel with the lead's. Without the cache, every profile
/// is queued immediately (the sharing-free behaviour).
///
/// **Parking, not blocking.** Profiles that extract identical code share
/// one target leg, so a worker often needs a leg another worker is
/// simulating right now. It does not wait: the item, already through the
/// first half of the pipeline, parks on the leg's gate and the worker pulls
/// other work. When the gate publishes (or its computer panics) the item
/// goes back to the front of the frontier of the worker that parked it,
/// which resumes it with the target leg before anything else; other
/// workers take it over only once the source is dry. Gates hand back
/// followers and parked items alike, and one count of outstanding
/// hand-backs tells an idle worker whether to wait or exit: workers that
/// find the source dry wait while items are parked, so the tail of a
/// campaign — and a few-tests × many-profiles sweep — stays parallel. With
/// a [`telechat_exec::SimConfig::deadline`], a leg's computation is cut
/// short at its own item's deadline — it is never cached, and its gate
/// hands the parked items back to recompute it — and an item resumed past
/// its own deadline fails as [`Error::Deadline`].
///
/// The result is byte-identical for every worker count and for cache
/// on/off: tests are pulled from the source in a fixed order, cells
/// aggregate by profile key, the positive-difference list is sorted before
/// returning, and cached legs replay deterministic results (and errors).
///
/// # Errors
///
/// Fails only on configuration errors (unknown source model); per-test
/// failures are counted in the cells' `errors`.
pub fn run_campaign_source(
    source: &mut dyn TestSource,
    spec: &CampaignSpec,
    config: &PipelineConfig,
) -> Result<CampaignResult> {
    // Compose the two parallelism levels (see `CampaignSpec::threads`):
    // campaign workers × enumeration threads must not oversubscribe.
    let mut config = config.clone();
    if spec.threads > 1 {
        config.sim.threads = 1;
    }
    let limit = config.sim.deadline;
    // Shard/journal sanity before any telemetry or model loading: a journal
    // opened for a different shard must never replay into this campaign.
    let shard = spec.shard.unwrap_or_else(ShardSpec::whole);
    if shard.count == 0 || shard.index >= shard.count {
        return Err(Error::Journal(format!("invalid shard spec {shard}")));
    }
    if let Some(journal) = &spec.journal {
        if journal.shard() != shard {
            return Err(Error::Journal(format!(
                "journal records shard {}, campaign runs shard {shard}",
                journal.shard()
            )));
        }
    }
    // Open telemetry before anything that loads models or probes the
    // store, so the whole campaign lands inside the window.
    let recorder = spec.metrics.then(|| Recorder::active().unwrap_or_else(Recorder::begin));
    let cache = (spec.cache || spec.store.is_some()).then(|| {
        let mut cache = SimCache::new();
        if let Some(store) = &spec.store {
            cache = cache.with_store(store.clone());
        }
        Arc::new(cache)
    });
    let tool = {
        let tool = match Telechat::with_config(&spec.source_model, config) {
            Ok(tool) => tool,
            Err(e) => {
                // Close the window on the configuration-error path, or it
                // would stay open on the caller's thread.
                recorder.map(Recorder::finish);
                return Err(e);
            }
        };
        match &cache {
            Some(c) => tool.with_cache(c.clone()),
            None => tool,
        }
    };
    let faults = spec.faults.as_ref();

    // Applicable compiler profiles; each test runs under all of them. The
    // per-profile identity (name fingerprint = journal key half + shard
    // partition input) is computed once up front.
    let profiles = spec.profiles();
    let profile_fps: Vec<u64> = profiles
        .iter()
        .map(|c| crate::journal::profile_fingerprint(&c.profile_name()))
        .collect();

    // No applicable profile (e.g. an -Og-only sweep over clang): nothing
    // to run. Return before touching the source — draining it would spin
    // forever on an unbounded generator.
    if profiles.is_empty() {
        return Ok(CampaignResult {
            obs: recorder.map(Recorder::finish),
            ..CampaignResult::default()
        });
    }

    let result = Mutex::new(CampaignResult::default());
    // Coverage: distinct source-outcome-set fingerprints seen across the
    // campaign (the precursor to observation-equivalence dedup). A set of
    // hashes, so the final cardinality is a pure function of the work
    // list — byte-identical across thread counts, cache and store.
    let outcome_sets: Mutex<std::collections::BTreeSet<u64>> =
        Mutex::new(std::collections::BTreeSet::new());
    // The source is only ever pulled with the frontier lock held.
    let source = Mutex::new(source);
    let workers = spec.threads.max(1);
    let next_worker = AtomicUsize::new(0);
    let frontier = Arc::new(Frontier {
        queue: Mutex::new(Queue {
            items: VecDeque::new(),
            resumes: (0..workers).map(|_| VecDeque::new()).collect(),
            outstanding: 0,
        }),
        idle: Condvar::new(),
    });

    // The root span of the trace; workers re-parent themselves under it so
    // every work item nests below "campaign" whichever thread ran it.
    let root_span = telechat_obs::span("campaign");
    let root_ref = telechat_obs::current();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let me = next_worker.fetch_add(1, Ordering::Relaxed);
                let _trace = telechat_obs::adopt(root_ref.clone());
                loop {
                    let work = {
                        let mut q = lock_unpoisoned(&frontier.queue);
                        loop {
                            // This worker's own resumes first, then the
                            // shared queue, then a new test.
                            if let Some(work) =
                                q.resumes[me].pop_front().or_else(|| q.items.pop_front())
                            {
                                break Some(work);
                            }
                            let next = lock_unpoisoned(&source).next_test();
                            match next {
                                Some(test) => {
                                    telechat_obs::add(telechat_obs::Counter::CampaignTests, 1);
                                    // Which profiles still need computing:
                                    // sharded-out items belong to another
                                    // shard and are skipped; journaled items
                                    // replay their recorded outcome now.
                                    let tfp = (spec.journal.is_some() || !shard.is_whole())
                                        .then(|| test.fingerprint());
                                    let mut pending = Vec::with_capacity(profiles.len());
                                    let mut replays = Vec::new();
                                    for (p, pfp) in profile_fps.iter().enumerate() {
                                        if let Some(t) = tfp {
                                            let key = ItemKey {
                                                test: t,
                                                profile: *pfp,
                                            };
                                            if key.shard(shard.count) != shard.index {
                                                continue;
                                            }
                                            if let Some(rec) = spec
                                                .journal
                                                .as_ref()
                                                .and_then(|j| j.replay(&key))
                                            {
                                                replays.push(rec);
                                                continue;
                                            }
                                        }
                                        pending.push(p);
                                    }
                                    {
                                        let mut res = lock_unpoisoned(&result);
                                        // Accounting totals describe the full
                                        // stream even for a shard campaign.
                                        res.source_tests += 1;
                                        res.compiled_tests += profiles.len();
                                        for rec in replays {
                                            telechat_obs::add(
                                                telechat_obs::Counter::CampaignResumed,
                                                1,
                                            );
                                            apply_outcome(
                                                &mut res,
                                                (rec.arch, rec.family, rec.opt),
                                                rec.outcome,
                                            );
                                        }
                                    }
                                    let test = Arc::new(test);
                                    if cache.is_some() && pending.len() > 1 {
                                        // Source-leg-first: queue the lead;
                                        // its warm-up parks the followers on
                                        // the test's source-leg gate.
                                        let followers = pending.split_off(1);
                                        q.items.push_back(Work::start(test, pending[0], followers));
                                    } else {
                                        for p in pending {
                                            q.items.push_back(Work::start(
                                                test.clone(),
                                                p,
                                                Vec::new(),
                                            ));
                                        }
                                    }
                                }
                                // Source dry: take over another worker's
                                // resumes rather than idle. Finished only once
                                // every parked item has been handed back;
                                // until then wait for a hand-back to refill
                                // a queue.
                                None if q.resumes.iter().any(|r| !r.is_empty()) => {
                                    break q.resumes.iter_mut().find_map(|r| r.pop_front());
                                }
                                None if q.outstanding == 0 => break None,
                                None => {
                                    q = frontier.idle.wait(q).unwrap_or_else(|e| e.into_inner());
                                }
                            }
                        }
                    };
                    let Some(Work {
                        home: _,
                        test,
                        profile: p,
                        mut attempts,
                        parks,
                        span,
                        deadline,
                        followers,
                        mut resume,
                    }) = work
                    else {
                        return;
                    };
                    // A fresh item opens its `work-item` span and starts
                    // its deadline; a resumed one re-enters the span it
                    // parked under, still owing the deadline it started.
                    let fresh = resume.is_none();
                    let mut deadline = if fresh { limit.map(Deadline::after) } else { deadline };
                    let _item_span = fresh.then(|| {
                        telechat_obs::add(telechat_obs::Counter::CampaignWorkItems, 1);
                        telechat_obs::span_with("work-item", || {
                            format!("{}:{}", test.name, profiles[p].profile_name())
                        })
                    });
                    let span = if fresh { telechat_obs::current() } else { span };
                    let _resumed = telechat_obs::adopt(if fresh { None } else { span.clone() });
                    if !followers.is_empty() {
                        // Park the followers on the test's source-leg gate
                        // while this worker populates the shared prepare +
                        // source-leg entries: they come back at the front
                        // of the frontier, cache-hot, as soon as the leg is
                        // ready — before this lead's own compile/extract/
                        // target work, so their compiles overlap the lead's.
                        // A simulation error is cached too and replays
                        // identically for every item, so it is ignored
                        // here. Panics (and deadline cuts) are contained:
                        // the gate poisons and hands the followers back, and
                        // the retry happens in the item run below.
                        let followers = followers
                            .into_iter()
                            .map(|f| Work::start(test.clone(), f, Vec::new()))
                            .collect();
                        let waker = frontier.park(followers);
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            tool.warm_source(&test, waker, LegRun { faults, deadline })
                        }));
                    }
                    let compiler = &profiles[p];
                    let key = (compiler.target.arch, compiler.id.family, compiler.opt);
                    let outcome = loop {
                        // The failure-isolation boundary: a panic anywhere
                        // in the pipeline becomes a typed error cell.
                        let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            let legs = LegRun { faults, deadline };
                            advance(&tool, &test, compiler, resume.take(), parks, legs)
                        }))
                        .unwrap_or_else(|panic| {
                            Step::Done(Err(Error::Panicked(panic_message(panic.as_ref()))))
                        });
                        let outcome = match step {
                            Step::Done(outcome) => outcome,
                            Step::Parked(gate, c) => {
                                // The target leg is in flight on another
                                // worker: park the continuation on its gate
                                // and pull other work. It comes back to the
                                // front of this worker's frontier when the
                                // gate publishes or poisons.
                                telechat_obs::add(telechat_obs::Counter::CampaignParked, 1);
                                let work = Work {
                                    home: Some(me),
                                    test: test.clone(),
                                    profile: p,
                                    attempts,
                                    parks: parks + 1,
                                    span,
                                    deadline,
                                    followers: Vec::new(),
                                    resume: Some(Box::new(c)),
                                };
                                gate.park(frontier.park(vec![work]));
                                break None;
                            }
                        };
                        // Supervised retries, only when the failure provably
                        // came from an injected *transient* fault: production
                        // failures stay deterministic (a flaky-looking leg is
                        // a bug, not noise). An item still faulting with a
                        // transient marker once the policy's attempts are
                        // exhausted escalates to the typed permanent failure
                        // — a counted error cell, never an unbounded retry
                        // loop. A retry is a new attempt with a new deadline.
                        let retry = faults.filter(|faults| {
                            outcome.as_ref().is_err_and(Error::is_fault)
                                && faults.take_transient(&test.name)
                        });
                        let Some(faults) = retry else {
                            break Some(outcome);
                        };
                        if attempts >= faults.max_attempts {
                            break Some(Err(Error::RetriesExhausted { attempts }));
                        }
                        telechat_obs::add(telechat_obs::Counter::CampaignRetries, 1);
                        faults.pause(attempts);
                        attempts += 1;
                        deadline = limit.map(Deadline::after);
                    };
                    let Some(outcome) = outcome else {
                        continue;
                    };
                    match &outcome {
                        Err(Error::Deadline { .. }) => {
                            telechat_obs::add(telechat_obs::Counter::CampaignDeadlineKills, 1);
                        }
                        Err(Error::Panicked(_)) => {
                            telechat_obs::add(telechat_obs::Counter::CampaignPanics, 1);
                        }
                        _ => {}
                    }
                    // Bin the outcome. Every error — fault or deterministic —
                    // is an error cell, but only non-fault completions are
                    // durable: fault-class failures are never journaled, so
                    // a resumed campaign recomputes them and a transient
                    // infrastructure fault heals instead of replaying.
                    let binned = match &outcome {
                        Ok((report, _)) => match report.verdict {
                            TestVerdict::Pass => ItemOutcome::Pass,
                            TestVerdict::NegativeDifference => ItemOutcome::Negative,
                            TestVerdict::PositiveDifference => ItemOutcome::Positive {
                                test: test.name.clone(),
                                profile: compiler.profile_name(),
                            },
                            TestVerdict::RuntimeCrash => ItemOutcome::Crashed,
                            TestVerdict::SourceRace => ItemOutcome::Racy,
                        },
                        Err(_) => ItemOutcome::Error,
                    };
                    let durable = !outcome.as_ref().is_err_and(Error::is_fault);
                    if spec.metrics {
                        if let Ok((_, source_fingerprint)) = &outcome {
                            lock_unpoisoned(&outcome_sets).insert(*source_fingerprint);
                        }
                    }
                    if matches!(binned, ItemOutcome::Positive { .. }) {
                        telechat_obs::add(telechat_obs::Counter::CampaignPositives, 1);
                    }
                    apply_outcome(&mut lock_unpoisoned(&result), key, binned.clone());
                    if durable {
                        if let Some(journal) = &spec.journal {
                            journal.record(&ItemRecord {
                                key: ItemKey {
                                    test: test.fingerprint(),
                                    profile: profile_fps[p],
                                },
                                arch: key.0,
                                family: key.1,
                                opt: key.2,
                                outcome: binned,
                            });
                        }
                    }
                }
            });
        }
    });

    let mut result = result.into_inner().unwrap_or_else(|e| e.into_inner());
    result.positive_tests.sort();
    if let Some(cache) = &cache {
        result.cache = cache.stats();
    }
    result.store = spec.store.as_ref().map(|s| s.stats());
    if let Some(journal) = &spec.journal {
        // Seal with the full-stream totals: the summary is what `merge`
        // and resumed runs validate against, and sealing is idempotent so
        // a resume of a completed campaign does not grow the log.
        journal.seal(result.source_tests as u64, result.compiled_tests as u64);
        result.journal = Some(journal.stats());
    }
    // Close the root span before snapshotting, so its duration (and the
    // main thread's buffered spans) land in the report.
    drop(root_span);
    if spec.metrics {
        let seen = outcome_sets.into_inner().unwrap_or_else(|e| e.into_inner());
        telechat_obs::add_labelled("coverage.source_outcome_sets", seen.len() as u64);
    }
    result.obs = recorder.map(Recorder::finish);
    Ok(result)
}

/// Folds one binned work-item outcome into a result's cells — the one
/// aggregation the live driver, the journal replay path and the shard
/// merge all share, so the three can never drift apart.
pub(crate) fn apply_outcome(
    res: &mut CampaignResult,
    key: (Arch, CompilerFamily, OptLevel),
    outcome: ItemOutcome,
) {
    let cell = res.cells.entry(key).or_default();
    match outcome {
        ItemOutcome::Pass => cell.pass += 1,
        ItemOutcome::Negative => cell.negative += 1,
        ItemOutcome::Positive { test, profile } => {
            cell.positive += 1;
            res.positive_tests.push((test, profile));
        }
        ItemOutcome::Crashed => cell.crashed += 1,
        ItemOutcome::Racy => cell.racy += 1,
        ItemOutcome::Error => cell.errors += 1,
    }
}

/// One campaign work item on the frontier.
struct Work {
    /// The worker that parked the item, which resumes it (see [`Queue`]);
    /// `None` for an item any worker takes next.
    home: Option<usize>,
    test: Arc<LitmusTest>,
    profile: usize,
    /// Runs so far, including the current one (supervised retries).
    attempts: u32,
    /// Times the item has parked; keys the resumed `target-sim` span.
    parks: u32,
    /// The item's `work-item` span, re-entered when it resumes.
    span: Option<telechat_obs::SpanRef>,
    /// The deadline the item started with, owed again when it resumes.
    deadline: Option<Deadline>,
    /// A lead item's followers: the test's other profiles.
    followers: Vec<usize>,
    /// The continuation of an item parked on an in-flight target leg
    /// after the first half of the pipeline; `None` before it starts.
    resume: Option<Box<Continuation>>,
}

impl Work {
    fn start(test: Arc<LitmusTest>, profile: usize, followers: Vec<usize>) -> Work {
        Work {
            home: None,
            test,
            profile,
            attempts: 1,
            parks: 0,
            span: None,
            deadline: None,
            followers,
            resume: None,
        }
    }
}

/// The campaign frontier, shared with the wakers parked on cache gates.
struct Frontier {
    queue: Mutex<Queue>,
    /// Signalled whenever parked work is handed back.
    idle: Condvar,
}

struct Queue {
    /// New items, and lead items' followers handed back, at the front.
    items: VecDeque<Work>,
    /// Per worker: the continuations it parked, handed back, at the front
    /// of that worker's frontier. A worker resumes its own items before
    /// anything else, and another worker's only when the source is dry:
    /// a continuation's allocations stay on the thread that made them.
    /// (Resuming anywhere was measured on the 2-core profile matrix: over
    /// half the items park, and freeing the other thread's allocations
    /// cost ~50k malloc-arena futex waits and ~15 % more CPU per campaign.)
    resumes: Vec<VecDeque<Work>>,
    /// Parked groups not yet handed back — the one count of outstanding
    /// releases. While it is non-zero, an empty queue with a dry source
    /// does **not** mean the campaign is done, so idle workers wait.
    outstanding: usize,
}

impl Frontier {
    /// Parks `works` as one group and returns the waker that hands them
    /// back, in order, to the *front* of the queue (or of their worker's
    /// resumes), where they run while the entry they waited for is
    /// cache-hot.
    fn park(self: &Arc<Self>, works: Vec<Work>) -> Waker {
        lock_unpoisoned(&self.queue).outstanding += 1;
        let frontier = self.clone();
        Waker::new(move || {
            lock_unpoisoned(&frontier.queue).hand_back(works);
            frontier.idle.notify_all();
        })
    }
}

impl Queue {
    fn hand_back(&mut self, works: Vec<Work>) {
        for work in works.into_iter().rev() {
            match work.home {
                Some(h) => self.resumes[h].push_front(work),
                None => self.items.push_front(work),
            }
        }
        self.outstanding -= 1;
    }
}

/// One step of a work item.
enum Step {
    /// The item finished: its report with the fingerprint of its source
    /// outcome set, or its error.
    Done(Result<(TestReport, u64)>),
    /// The target leg is in flight on another worker: park the
    /// continuation on its gate.
    Parked(Arc<Gate>, Continuation),
}

/// [`Telechat::run`] for a campaign work item, split where it may have to
/// wait: the first half (or the parked continuation), then the target leg
/// without blocking, then the second half. The item's deadline is
/// cooperative: checked here at the start of every step (so an item
/// resumed after parking past it fails) and by the simulation legs at their
/// checkpoints; an overrun is [`Error::Deadline`].
fn advance(
    tool: &Telechat,
    test: &LitmusTest,
    compiler: &Compiler,
    resume: Option<Box<Continuation>>,
    parks: u32,
    legs: LegRun<'_>,
) -> Step {
    if let Some(Err(e)) = legs.deadline.map(|d| d.check()) {
        return Step::Done(Err(e));
    }
    let c = match resume {
        Some(c) => *c,
        None => match tool.begin(test, compiler, legs) {
            Ok(c) => c,
            Err(e) => return Step::Done(Err(e)),
        },
    };
    let target = {
        // A resumed item's leg span is keyed by its park count, so span
        // ids stay unique under the one `work-item` span.
        let _span = telechat_obs::span_with("target-sim", || {
            if parks == 0 {
                String::new()
            } else {
                parks.to_string()
            }
        });
        match tool.try_target_leg(&c, legs) {
            Ok(target) => target,
            Err(gate) => return Step::Parked(gate, c),
        }
    };
    Step::Done(target.map(|target| {
        let source_fingerprint = c.source_fingerprint();
        (tool.finish(c, &target), source_fingerprint)
    }))
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every derived `rate` row must render "-" — never NaN/inf, never a
    /// panic — when its denominator window is zero: a sub-millisecond
    /// campaign with no candidates, or a cache touched only on a layer
    /// whose hit-rate denominator stays empty.
    #[test]
    fn rate_rows_guard_zero_denominators() {
        let mut obs = telechat_obs::ObsReport::default();
        obs.push_counter(
            "sim.pruned_candidates",
            telechat_obs::Class::Deterministic,
            0,
        );
        obs.push_counter("sim.candidates", telechat_obs::Class::Deterministic, 0);
        let mut result = CampaignResult {
            obs: Some(obs),
            compiled_tests: 4,
            ..CampaignResult::default()
        };
        // Only the prepare layer was touched: `any()` renders the cache
        // block while the source/target hit-rate denominators are zero.
        result.cache.prepare_hits = 1;

        let rows = result.metric_rows();
        let rate = |name: &str| {
            rows.iter()
                .find(|r| r.kind == "rate" && r.name == name)
                .map(|r| r.value.clone())
        };
        assert_eq!(rate("sim.prune_ratio").as_deref(), Some("-"));
        assert_eq!(rate("cache.source.hit_rate").as_deref(), Some("-"));
        assert_eq!(rate("cache.target.hit_rate").as_deref(), Some("-"));
        // A zero-length campaign phase suppresses tests/s entirely rather
        // than dividing by a zero-nanosecond window.
        assert_eq!(rate("campaign.tests_per_s"), None);
        for r in &rows {
            assert!(
                !r.value.contains("NaN") && !r.value.contains("inf"),
                "{}: {}",
                r.name,
                r.value
            );
        }
    }
}
