//! The Téléchat test environment `exec_tv` (paper Fig. 5): generate →
//! prepare → compile → extract → simulate ×2 → compare.
//!
//! # Campaign-scale sharing
//!
//! A pipeline can carry a [`SimCache`] ([`Telechat::with_cache`]): the
//! prepare stage and both simulation legs are then served content-addressed
//! — the source leg runs once per test regardless of how many compiler
//! profiles consume it, and target legs collapse whenever different
//! profiles extract identical code. Source models resolve through the
//! process-wide `telechat_cat::ModelRegistry`, so each bundled `.cat`
//! program is parsed and staged once per process rather than once per
//! `Telechat`/run.

use crate::cache::{Gate, SimCache, SourceLeg, Waker};
use crate::fault::{self, FaultLeg};
use crate::l2c::{self, PreparedSource};
use crate::mapping::StateMapping;
use crate::mcompare::{mcompare_shared, Comparison};
use crate::s2l::{self, S2lOptions};
use std::sync::Arc;
use std::time::Duration;
use telechat_cat::{CatModel, ModelRegistry};
use telechat_common::{Error, OutcomeSet, Result};
use telechat_compiler::{CompileOutput, Compiler};
use telechat_exec::{simulate, SimConfig, SimResult};
use telechat_isa::AsmTest;
use telechat_litmus::LitmusTest;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Persist condition-observed locals into globals (the §IV-B fix).
    pub augment: bool,
    /// Run the s2l litmus optimisation (§IV-E).
    pub optimise: bool,
    /// Simulation limits for both source and target runs.
    pub sim: SimConfig,
    /// Override the architecture model (e.g. `armv7-buggy` for the model
    /// bug study). `None` selects the target's default model.
    pub target_model: Option<String>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            augment: true,
            optimise: true,
            sim: SimConfig::default(),
            target_model: None,
        }
    }
}

/// Per-test verdict (the paper's §II-B responses, refined).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestVerdict {
    /// Compiled outcomes ⊆ source outcomes, with equality.
    Pass,
    /// Compiled outcomes ⊂ source outcomes (optimisation/architecture
    /// strengthening — not a bug).
    NegativeDifference,
    /// Compiled outcomes ⊄ source outcomes — a candidate bug!
    PositiveDifference,
    /// An allowed execution of the compiled test writes to read-only
    /// memory: run-time crash (paper bug [36]).
    RuntimeCrash,
    /// The source program has a data race — undefined behaviour, so any
    /// compiled behaviour is permitted and the test is discounted
    /// ("we ignore false positives on that basis", §IV-D).
    SourceRace,
}

/// The full report for one test × one compiler profile.
#[derive(Debug, Clone)]
pub struct TestReport {
    /// Source test name.
    pub test_name: String,
    /// Compiler profile (`clang-11-O3-AArch64`).
    pub profile: String,
    /// The verdict.
    pub verdict: TestVerdict,
    /// Source-model outcomes. `Arc`-shared with the campaign cache (and
    /// with every other profile's report of the same test) rather than
    /// deep-copied per profile.
    pub source_outcomes: Arc<OutcomeSet>,
    /// Compiled-test outcomes, renamed into source observables.
    pub target_outcomes: OutcomeSet,
    /// The positive differences, if any.
    pub positive: OutcomeSet,
    /// The negative differences, if any.
    pub negative: OutcomeSet,
    /// Wall-clock time of the source simulation (of the original
    /// computation when the result was cache-shared).
    pub source_time: Duration,
    /// Wall-clock time of the compiled-test simulation — the number the
    /// paper's Claim 5 reports in milliseconds.
    pub target_time: Duration,
    /// The extracted assembly litmus test (for logs and figures).
    pub asm_test: AsmTest,
}

/// The Téléchat tool: a source model plus pipeline configuration.
///
/// ```no_run
/// use telechat::{Telechat, PipelineConfig};
/// use telechat_compiler::{Compiler, CompilerId, OptLevel, Target};
/// use telechat_litmus::parse_c11;
///
/// let tool = Telechat::new("rc11")?;
/// let test = parse_c11("...")?;
/// let cc = Compiler::new(CompilerId::llvm(11), OptLevel::O3, Target::armv81_lse());
/// let report = tool.run(&test, &cc)?;
/// # Ok::<(), telechat_common::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Telechat {
    source_model: Arc<CatModel>,
    /// The pipeline configuration (public for tweaking between runs).
    pub config: PipelineConfig,
    /// The optional campaign-scale sharing layer.
    cache: Option<Arc<SimCache>>,
}

impl Telechat {
    /// A pipeline with the named source model and default configuration.
    ///
    /// # Errors
    ///
    /// Fails if the model is not bundled.
    pub fn new(source_model: &str) -> Result<Telechat> {
        Telechat::with_config(source_model, PipelineConfig::default())
    }

    /// A pipeline with explicit configuration.
    ///
    /// # Errors
    ///
    /// Fails if the model is not bundled.
    pub fn with_config(source_model: &str, config: PipelineConfig) -> Result<Telechat> {
        Ok(Telechat {
            source_model: ModelRegistry::global().bundled(source_model)?,
            config,
            cache: None,
        })
    }

    /// Attaches a simulation cache: subsequent runs share prepare and
    /// simulation legs with every other pipeline holding the same cache.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<SimCache>) -> Telechat {
        self.cache = Some(cache);
        self
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&Arc<SimCache>> {
        self.cache.as_ref()
    }

    /// The source model in use.
    pub fn source_model(&self) -> &CatModel {
        &self.source_model
    }

    /// The prepared source for `test` under this pipeline's augmentation
    /// setting — served from the cache (once per distinct test content)
    /// when one is attached.
    fn prepare(&self, test: &LitmusTest) -> Arc<PreparedSource> {
        match &self.cache {
            Some(cache) => cache.prepared(test, self.config.augment),
            None => Arc::new(l2c::prepare(test, self.config.augment)),
        }
    }

    /// The source leg for an already prepared test: simulation result plus
    /// the profile-invariant comparison half.
    fn source_leg(&self, prepared: &PreparedSource) -> Result<SourceLeg> {
        match &self.cache {
            Some(cache) => cache.source_leg(prepared, &self.source_model, &self.config.sim),
            None => {
                fault::fire(FaultLeg::Source, &prepared.test.name);
                simulate(&prepared.test, &*self.source_model, &self.config.sim).map(SourceLeg::of)
            }
        }
    }

    /// The architecture model for a target litmus test, honouring the
    /// `target_model` override — always resolved through the process-wide
    /// model registry.
    fn target_model(&self, target: &LitmusTest) -> Result<Arc<CatModel>> {
        match &self.config.target_model {
            Some(name) => ModelRegistry::global().bundled(name),
            None => ModelRegistry::global().for_arch(target.arch),
        }
    }

    /// The target leg: the compiled test simulated under `model`.
    fn target_leg(&self, target: &LitmusTest, model: &CatModel) -> Result<Arc<SimResult>> {
        match &self.cache {
            Some(cache) => cache.target_leg(target, model, &self.config.sim),
            None => self.simulate_target(target, model),
        }
    }

    fn simulate_target(&self, target: &LitmusTest, model: &CatModel) -> Result<Arc<SimResult>> {
        fault::fire(FaultLeg::Target, &target.name);
        Ok(Arc::new(simulate(target, model, &self.config.sim)?))
    }

    /// The target leg of a continuation without blocking: the leg, or
    /// `Err(gate)` while another campaign worker computes the same leg
    /// (only possible with a cache attached).
    pub(crate) fn try_target_leg(
        &self,
        c: &Continuation,
    ) -> std::result::Result<Result<Arc<SimResult>>, Arc<Gate>> {
        match &self.cache {
            Some(cache) => cache.try_target_leg(&c.target, &c.target_model, &self.config.sim),
            None => Ok(self.simulate_target(&c.target, &c.target_model)),
        }
    }

    /// Steps 2–4 of Fig. 5 without simulation: prepare, compile, extract.
    /// Exposed separately so benchmarks can time the stages. With a cache
    /// attached, prepare runs once per test instead of once per profile.
    ///
    /// # Errors
    ///
    /// Propagates compilation and extraction failures.
    pub fn extract(
        &self,
        test: &LitmusTest,
        compiler: &Compiler,
    ) -> Result<(
        Arc<PreparedSource>,
        CompileOutput,
        StateMapping,
        AsmTest,
        LitmusTest,
    )> {
        let prepared = {
            let _span = telechat_obs::span("prepare");
            self.prepare(test)
        };
        let compiled = {
            let _span = telechat_obs::span("compile");
            compiler.compile(&prepared.test)?
        };
        let _span = telechat_obs::span("extract");
        let mapping = StateMapping::build(
            prepared.observed_keys.iter().cloned(),
            &prepared.augmented,
            &compiled.reg_map,
        );
        let name = format!("{}.{}", compiled.profile, test.name);
        let (asm, litmus) = s2l::object_to_litmus(
            &compiled.object,
            &name,
            &test.condition,
            &test.observed,
            &mapping,
            S2lOptions {
                optimise: self.config.optimise,
            },
        )?;
        Ok((prepared, compiled, mapping, asm, litmus))
    }

    /// Runs the whole `test_tv` check for one test and compiler: the first
    /// half (prepare, compile, extract, source leg), the target leg, then
    /// the second half (accounting, `mcompare`, verdict). Campaign workers
    /// run the same halves but never block on the target leg.
    ///
    /// # Errors
    ///
    /// Returns simulation exhaustion ([`Error::Timeout`]/[`Error::Budget`])
    /// — the behaviour unoptimised tests exhibit — and compilation or
    /// extraction failures. Cached legs replay the original error for
    /// every profile, exactly as the uncached driver fails each one.
    pub fn run(&self, test: &LitmusTest, compiler: &Compiler) -> Result<TestReport> {
        let c = self.begin(test, compiler)?;
        // Step 4: simulate the compiled test under the architecture model
        // (shared across profiles that extracted identical code).
        let target = {
            let _span = telechat_obs::span("target-sim");
            self.target_leg(&c.target, &c.target_model)?
        };
        Ok(self.finish(c, &target))
    }

    /// The first half of [`Telechat::run`]: prepare, compile, extract, the
    /// source leg and the target-model resolution — everything before the
    /// target leg, which a campaign worker may have to park for.
    pub(crate) fn begin(&self, test: &LitmusTest, compiler: &Compiler) -> Result<Continuation> {
        let (prepared, _compiled, mapping, asm, target) = self.extract(test, compiler)?;

        // Step 3: simulate the source under the source model (shared
        // across profiles through the cache).
        let source = {
            let _span = telechat_obs::span("source-sim");
            self.source_leg(&prepared)?
        };
        let target_model = self.target_model(&target)?;
        Ok(Continuation {
            test_name: test.name.clone(),
            profile: compiler.profile_name(),
            mapping,
            asm,
            target,
            target_model,
            source,
        })
    }

    /// The second half of [`Telechat::run`], given the target leg's
    /// result: absorbs both legs' accounting, runs `mcompare` and returns
    /// the verdict.
    pub(crate) fn finish(&self, c: Continuation, target_result: &SimResult) -> TestReport {
        let source = c.source;

        // Both legs succeeded: absorb their simulation accounting into the
        // metrics registry. Cached/stored replays carry the original run's
        // counters, so the campaign totals are a pure function of the work
        // list — invariant across thread counts, cache on/off and store
        // warm/cold. (`steal_tasks` is scheduling-class and replays as 0.)
        for leg in [source.result.as_ref(), target_result] {
            telechat_obs::add(telechat_obs::Counter::SimCandidates, leg.candidates);
            telechat_obs::add(telechat_obs::Counter::SimAllowed, leg.allowed);
            telechat_obs::add(telechat_obs::Counter::SimPruned, leg.pruned_candidates);
            telechat_obs::add(
                telechat_obs::Counter::SimFullTraversals,
                leg.full_traversals,
            );
            telechat_obs::add(telechat_obs::Counter::SimStealTasks, leg.steal_tasks);
        }

        // Attribution: which rule forbade leaves, which rule/site pruned
        // subtrees, and the per-combo DFS-size distribution. Same replay
        // discipline as the counters above (the data rides `SimResult`),
        // so the labelled totals and merged histograms share the counters'
        // determinism guarantee. Gated: the label formatting is not free.
        if telechat_obs::enabled() {
            for leg in [source.result.as_ref(), target_result] {
                for (rule, n) in &leg.rule_leaves {
                    telechat_obs::add_labelled(&format!("sim.rule.leaf.{rule}"), *n);
                }
                for (rule, n) in &leg.rule_prunes {
                    telechat_obs::add_labelled(&format!("sim.rule.prune.{rule}"), *n);
                }
                for (site, n) in leg.prune_sites.rows() {
                    if n > 0 {
                        telechat_obs::add_labelled(&format!("sim.prune.{site}"), n);
                    }
                }
                telechat_obs::merge_hist(
                    "sim.combo_candidates",
                    telechat_obs::Class::Deterministic,
                    &leg.combo_candidates,
                );
            }
        }

        // Step 5: mcompare — only the target half runs per profile.
        let cmp: Comparison = {
            let _span = telechat_obs::span("compare");
            mcompare_shared(&source.observables, &target_result.outcomes, &c.mapping)
        };

        let verdict = if source.result.has_flag("race") {
            TestVerdict::SourceRace
        } else if target_result.crashed {
            TestVerdict::RuntimeCrash
        } else if !cmp.positive.is_empty() {
            TestVerdict::PositiveDifference
        } else if !cmp.negative.is_empty() {
            TestVerdict::NegativeDifference
        } else {
            TestVerdict::Pass
        };

        TestReport {
            test_name: c.test_name,
            profile: c.profile,
            verdict,
            source_outcomes: cmp.source,
            target_outcomes: cmp.target,
            positive: cmp.positive,
            negative: cmp.negative,
            source_time: source.result.elapsed,
            target_time: target_result.elapsed,
            asm_test: c.asm,
        }
    }

    /// The campaign warm-up: prepares `test` and claims its source leg
    /// without blocking, with `waker` parked on the leg until it is ready
    /// (see [`SimCache`]). Without a cache the waker comes back at once.
    pub(crate) fn warm_source(&self, test: &LitmusTest, waker: Waker) {
        if let Some(cache) = &self.cache {
            let prepared = self.prepare(test);
            cache.park_on_source_leg(&prepared, &self.source_model, &self.config.sim, waker);
        }
    }

    /// Simulates only the source side (used by baselines like C4 that
    /// share Téléchat's source leg) — through the cache when one is
    /// attached, so it also shares with [`Telechat::run`].
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn simulate_source(&self, test: &LitmusTest) -> Result<Arc<SimResult>> {
        let prepared = self.prepare(test);
        self.source_leg(&prepared).map(|leg| leg.result)
    }
}

/// A work item between the halves of [`Telechat::run`]: what the target
/// leg and the comparison still need.
pub(crate) struct Continuation {
    test_name: String,
    profile: String,
    mapping: StateMapping,
    asm: AsmTest,
    target: LitmusTest,
    target_model: Arc<CatModel>,
    source: SourceLeg,
}

impl Continuation {
    /// The fingerprint of the item's restricted source outcome set (see
    /// [`crate::mcompare::SourceObservables::fingerprint`]).
    pub(crate) fn source_fingerprint(&self) -> u64 {
        self.source.observables.fingerprint
    }
}

/// Convenience: is an error the state-explosion signature (timeout or
/// budget exhaustion)?
pub fn is_state_explosion(e: &Error) -> bool {
    e.is_exhaustion()
}
