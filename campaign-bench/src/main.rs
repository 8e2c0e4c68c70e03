//! `campaign-bench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path campaign-bench/Cargo.toml -- \
//!     --workload <fuzz_seed7|profile_matrix|store_resume> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run generates the workload's inputs from `--seed` (default 7),
//! runs its campaign through `telechat::run_campaign_source` with two
//! workers, checks every campaign against the workload's stored verdict
//! reference and prints, as the last line of stdout, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0` repeats the campaign call for `--seconds` (at least once)
//!   and reports the end-to-end metrics: median items/s and CPU seconds per
//!   call, median set-up time over repeated set-ups, and the first call's
//!   peak RSS.
//! * `--trace 1` runs the campaign once, then replays its work items on one
//!   thread through each layer's public functions (see `replay`), writes the
//!   spans to `.bench_work/spans/`, and reports the per-layer metrics.
//!
//! `--write-reference` regenerates `refs/<workload>.ref` with the uncached
//! single-worker driver. All scratch files live under `.bench_work/` in the
//! working directory.

mod probe;
mod reference;
mod replay;
mod resume;
mod workload;

use probe::{cpu_seconds, median, peak_rss_mb, quantile, reset_peak_rss};
use reference::Reference;
use replay::{replay, ReplayInput};
use resume::Fixture;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telechat::persist::MemBackend;
use telechat::{
    campaign_fingerprint, run_campaign_source, CampaignJournal, CampaignResult, CampaignSpec,
    PipelineConfig, ShardSpec, SimCache,
};
use telechat_cat::ModelRegistry;
use workload::{generate, stage_models, Inputs, Workload, WORKERS};

/// Set-ups timed before the first campaign call.
const SETUP_REPS: usize = 9;
/// Set-ups timed after each campaign call of a `--trace 0` run, so the
/// set-up samples span the run as the calls do; `setup_s` is the median of
/// all of them.
const SETUP_REPS_PER_CALL: usize = 3;

const FUZZ_REF: &str = include_str!("../refs/fuzz_seed7.ref");
const MATRIX_REF: &str = include_str!("../refs/profile_matrix.ref");

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    write_reference: bool,
    fixture: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 7,
        seconds: 10,
        trace: false,
        write_reference: false,
        fixture: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => a.seed = num(value()?)?,
            "--seconds" => a.seconds = num(value()?)?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--write-reference" => a.write_reference = true,
            "--fixture" => a.fixture = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(a)
}

fn main() {
    let code = match parse_args().and_then(|a| run(&a)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            1
        }
    };
    std::process::exit(code);
}

/// The stored reference of `w`.
fn reference(w: Workload) -> Result<Reference, String> {
    let text = match w.reference() {
        Workload::FuzzSeed7 => FUZZ_REF,
        _ => MATRIX_REF,
    };
    Reference::parse(text).map_err(|e| format!("{} reference: {e}", w.reference().name()))
}

fn run(a: &Args) -> Result<(), String> {
    if let Some(dir) = &a.fixture {
        return resume::build(dir, a.seed, &reference(Workload::StoreResume)?);
    }
    let w = a.workload.ok_or("--workload is required")?;
    if a.write_reference {
        return write_reference(w);
    }
    let reference = reference(w)?;
    let work = WorkDir::create(w)?;
    let report = if a.trace {
        traced(w, a.seed, a.seconds, &work, &reference)?
    } else {
        measured(w, a.seed, a.seconds, &work, &reference)?
    };
    println!("{}", report.json());
    if report.correct {
        Ok(())
    } else {
        Err("verdicts differ from the reference".into())
    }
}

/// A per-process scratch directory under `.bench_work/`, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(w: Workload) -> Result<WorkDir, String> {
        let dir = Path::new(".bench_work").join(format!("{}-{}", w.name(), std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Regenerates `refs/<workload>.ref` with the uncached single-worker
/// driver. The pull order is seed 7's; the reference does not depend on it.
fn write_reference(w: Workload) -> Result<(), String> {
    if w.reference() != w {
        return Err(format!(
            "{} reuses the {} reference",
            w.name(),
            w.reference().name()
        ));
    }
    let inputs = generate(w, 7);
    let spec = CampaignSpec {
        threads: 1,
        cache: false,
        ..w.spec()
    };
    let start = Instant::now();
    let result = run_campaign_source(
        &mut inputs.tests.iter().cloned(),
        &spec,
        &PipelineConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let r = Reference::of(inputs.set_fnv, &result);
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("refs")
        .join(format!("{}.ref", w.name()));
    std::fs::write(&path, r.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{}: {} items, {} error(s), {:.1} s -> {}",
        w.name(),
        r.compiled_tests,
        r.errors(),
        start.elapsed().as_secs_f64(),
        path.display()
    );
    Ok(())
}

/// Times of one set-up: what a user waits for before the campaign call.
struct Setup {
    total: Duration,
    gen: Duration,
    stage: Duration,
    store_open: Duration,
    journal_open: Duration,
}

/// Input generation, model staging and (for `store_resume`) log restore
/// and recovery, run and timed `n` times into `out`; returns the last
/// set-up's inputs.
fn setups(
    w: Workload,
    seed: u64,
    fixture: Option<&Fixture>,
    n: usize,
    out: &mut Vec<Setup>,
) -> Result<Inputs, String> {
    let mut last = None;
    for _ in 0..n {
        let start = Instant::now();
        let inputs = generate(w, seed);
        let gen = start.elapsed();
        let stage = stage_models(w);
        let (store_open, journal_open) = match fixture {
            Some(f) => {
                let o = f.open(inputs.set_fnv)?;
                (o.store_open, o.journal_open)
            }
            None => Default::default(),
        };
        out.push(Setup {
            total: start.elapsed(),
            gen,
            stage,
            store_open,
            journal_open,
        });
        last = Some(inputs);
    }
    Ok(last.expect("at least one set-up"))
}

/// Stages every model `w` uses in the process-wide registry, so campaign
/// calls do not pay for it.
fn warm_registry(w: Workload) -> Result<(), String> {
    for name in w.models() {
        ModelRegistry::global()
            .bundled(&name)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// One campaign call's spec: `store_resume` restores and attaches the
/// fixture's store and journal and opens the telemetry window.
fn call_spec(w: Workload, fixture: Option<&Fixture>, set_fnv: u64) -> Result<CampaignSpec, String> {
    let mut spec = w.spec();
    if let Some(f) = fixture {
        let o = f.open(set_fnv)?;
        spec.store = Some(o.store);
        spec.journal = Some(o.journal);
        spec.metrics = true;
    }
    Ok(spec)
}

/// A timed campaign call.
struct Call {
    result: CampaignResult,
    wall: f64,
    cpu: f64,
    peak_rss_mb: f64,
}

fn campaign(spec: &CampaignSpec, inputs: &Inputs) -> Result<Call, String> {
    reset_peak_rss();
    let cpu = cpu_seconds();
    let start = Instant::now();
    let result = run_campaign_source(
        &mut inputs.tests.iter().cloned(),
        spec,
        &PipelineConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    Ok(Call {
        wall: start.elapsed().as_secs_f64(),
        cpu: cpu_seconds() - cpu,
        peak_rss_mb: peak_rss_mb(),
        result,
    })
}

/// Checks a campaign against the reference and, for `store_resume`, that
/// the resume really replayed the journal and read the store. Returns the
/// verdict mismatches and the error cells.
fn check(
    w: Workload,
    call: &Call,
    inputs: &Inputs,
    reference: &Reference,
) -> Result<(usize, usize), String> {
    if w == Workload::StoreResume {
        let replayed = call.result.journal.as_ref().map_or(0, |j| j.replayed);
        if replayed == 0 || call.result.cache.disk_hits == 0 {
            return Err("store_resume replayed no journal item or read no stored leg".into());
        }
    }
    let got = Reference::of(inputs.set_fnv, &call.result);
    Ok((reference.mismatches(&got), got.errors()))
}

fn fixture(w: Workload, seed: u64, work: &WorkDir) -> Result<Option<Fixture>, String> {
    if w != Workload::StoreResume {
        return Ok(None);
    }
    let start = Instant::now();
    let f = Fixture::make(&work.0, seed)?;
    println!(
        "fixture: built in {:.2} s; store {} bytes, journal {} bytes",
        start.elapsed().as_secs_f64(),
        f.store_len(),
        f.journal_len()
    );
    Ok(Some(f))
}

fn print_inputs(w: Workload, seed: u64, inputs: &Inputs) {
    println!(
        "workload {} seed {seed}: {} tests x {} profiles, set fnv1a64 {:016x}, feed fnv1a64 {:016x}, {WORKERS} workers",
        w.name(),
        inputs.tests.len(),
        w.spec().profiles().len(),
        inputs.set_fnv,
        inputs.feed_fnv
    );
}

/// The end-to-end run (`--trace 0`).
fn measured(
    w: Workload,
    seed: u64,
    seconds: u64,
    work: &WorkDir,
    reference: &Reference,
) -> Result<Report, String> {
    let fixture = fixture(w, seed, work)?;
    let mut set_ups = Vec::new();
    let inputs = setups(w, seed, fixture.as_ref(), SETUP_REPS, &mut set_ups)?;
    warm_registry(w)?;
    print_inputs(w, seed, &inputs);

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut rates, mut cpus, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut mismatches) = (0, 0, 0);
    loop {
        let spec = call_spec(w, fixture.as_ref(), inputs.set_fnv)?;
        let call = campaign(&spec, &inputs)?;
        drop(spec);
        let (m, errors) = check(w, &call, &inputs, reference)?;
        let items = call.result.compiled_tests;
        println!(
            "call {}: {items} items in {:.3} s = {:.1} items/s, cpu {:.3} s, peak rss {:.1} MB, {errors} error cell(s), {m} mismatch(es)",
            rates.len() + 1,
            call.wall,
            items as f64 / call.wall,
            call.cpu,
            call.peak_rss_mb
        );
        rates.push(items as f64 / call.wall);
        cpus.push(call.cpu);
        peaks.push(call.peak_rss_mb);
        attempted += items;
        failed += errors;
        mismatches += m;
        setups(w, seed, fixture.as_ref(), SETUP_REPS_PER_CALL, &mut set_ups)?;
        if Instant::now() >= deadline {
            break;
        }
    }
    println!(
        "verdict_mismatches {mismatches}, failed_item_share {}",
        failed as f64 / attempted as f64
    );
    let setup_s: Vec<f64> = set_ups.iter().map(|s| s.total.as_secs_f64()).collect();
    let setup_ms: Vec<String> = setup_s.iter().map(|s| format!("{:.2}", s * 1e3)).collect();
    println!("set-ups (ms): {}", setup_ms.join(" "));
    let mut r = Report::new(mismatches == 0, attempted, failed);
    r.metric("items_per_s", median(&rates), "1/s");
    r.metric("cpu_s", median(&cpus), "s");
    r.metric("setup_s", median(&setup_s), "s");
    // A CLI user runs one campaign per process: its peak is the first
    // call's. Later calls start from whatever the allocator kept.
    r.metric("peak_rss_mb", peaks[0], "MB");
    Ok(r)
}

/// The traced run (`--trace 1`).
fn traced(
    w: Workload,
    seed: u64,
    seconds: u64,
    work: &WorkDir,
    reference: &Reference,
) -> Result<Report, String> {
    let fixture = fixture(w, seed, work)?;
    let mut set_ups = Vec::new();
    let inputs = setups(w, seed, fixture.as_ref(), SETUP_REPS, &mut set_ups)?;
    warm_registry(w)?;
    let ms = |f: fn(&Setup) -> Duration| {
        let v: Vec<f64> = set_ups.iter().map(|s| f(s).as_secs_f64() * 1e3).collect();
        median(&v)
    };
    let (gen_ms, stage_ms) = (ms(|s| s.gen), ms(|s| s.stage));
    let (store_open_ms, journal_open_ms) = (ms(|s| s.store_open), ms(|s| s.journal_open));
    print_inputs(w, seed, &inputs);
    let config = PipelineConfig::default();

    // The campaign, journaled so every item's outcome is known: in memory
    // for the workloads that run without a journal.
    let mut spec = call_spec(w, fixture.as_ref(), inputs.set_fnv)?;
    let journal = match &spec.journal {
        Some(j) => j.clone(),
        None => {
            let fp = campaign_fingerprint(inputs.set_fnv, &spec, &config);
            let j =
                CampaignJournal::open_backend(Box::new(MemBackend::new()), fp, ShardSpec::whole())
                    .map_err(|e| e.to_string())?;
            Arc::new(j)
        }
    };
    spec.journal = Some(journal.clone());
    let call = campaign(&spec, &inputs)?;
    drop(spec);
    let (mut campaign_mismatches, _) = check(w, &call, &inputs, reference)?;
    let outcomes: HashMap<_, _> = journal
        .records()
        .into_iter()
        .map(|r| (r.key, r.outcome))
        .collect();
    drop(journal);
    println!(
        "campaign: {} items in {:.3} s, {campaign_mismatches} mismatch(es)",
        call.result.compiled_tests, call.wall
    );

    // Telemetry cost on the resume: calls with the window open and closed,
    // alternating which goes first, for `--seconds` (at least two pairs).
    let (mut obs_spans, mut overhead_pct) = (0, 0.0);
    if let Some(f) = &fixture {
        let deadline = Instant::now() + Duration::from_secs(seconds);
        let (mut on, mut off) = (Vec::new(), Vec::new());
        while on.len() < 2 || Instant::now() < deadline {
            for metrics in [on.len() % 2 == 0, on.len() % 2 == 1] {
                let mut spec = call_spec(w, Some(f), inputs.set_fnv)?;
                spec.metrics = metrics;
                let c = campaign(&spec, &inputs)?;
                campaign_mismatches += check(w, &c, &inputs, reference)?.0;
                if metrics {
                    obs_spans = c.result.obs.as_ref().map_or(0, |o| o.spans.len());
                    on.push(c.wall);
                } else {
                    off.push(c.wall);
                }
            }
        }
        overhead_pct = (median(&on) / median(&off) - 1.0) * 100.0;
        println!(
            "obs: {obs_spans} spans; campaign median {:.3} s with telemetry vs {:.3} s without ({} pairs), overhead {overhead_pct:.2} % of the untraced call",
            median(&on),
            median(&off),
            on.len()
        );
    }

    // The replay, from the state the campaign started from.
    let (cache, journal) = match &fixture {
        Some(f) => {
            let o = f.open(inputs.set_fnv)?;
            (SimCache::new().with_store(o.store), Some(o.journal))
        }
        None => (SimCache::new(), None),
    };
    let spec = w.spec();
    let profiles = spec.profiles();
    let rep = replay(&ReplayInput {
        tests: &inputs.tests,
        source_model: &spec.source_model,
        profiles: &profiles,
        config: &config,
        cache: Arc::new(cache),
        journal,
        campaign: &outcomes,
        set_fnv: inputs.set_fnv,
    });
    let replay_vs_reference = reference.mismatches(&rep.result);
    let spans_dir = Path::new(".bench_work").join("spans");
    std::fs::create_dir_all(&spans_dir).map_err(|e| e.to_string())?;
    let spans_path = spans_dir.join(format!("{}-seed{seed}.jsonl", w.name()));
    rep.write_spans(&spans_path).map_err(|e| e.to_string())?;
    println!(
        "replay: {} items, {} spans -> {}; {} verdict(s) differ from the campaign, {} from the reference, {} item(s) whose layers do not add up",
        rep.items.len(),
        rep.spans.len(),
        spans_path.display(),
        rep.mismatches,
        replay_vs_reference,
        rep.unbalanced
    );

    let layers = rep.layers();
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let layer_ms = |name: &str| layer(name).0 as f64 / 1e6;
    println!("layer self time (ms, calls):");
    for (name, (ns, calls)) in &layers {
        println!("  {name:24} {:12.3} {calls:8}", *ns as f64 / 1e6);
    }
    let item_ms: Vec<f64> = rep.items.iter().map(|i| i.ns as f64 / 1e6).collect();
    let total_ms: f64 = item_ms.iter().sum();
    let mut slowest: Vec<(usize, &replay::ItemRow)> = rep.items.iter().enumerate().collect();
    slowest.sort_by_key(|(_, i)| std::cmp::Reverse(i.ns));
    slowest.truncate(5);
    let top5_ms: f64 = slowest.iter().map(|(_, i)| i.ns as f64 / 1e6).sum();
    println!("slowest items (test position in pull order, layer self times in ms):");
    for (pos, i) in &slowest {
        let split: Vec<String> = i
            .layers
            .iter()
            .map(|(n, ns)| format!("{n} {:.1}", *ns as f64 / 1e6))
            .collect();
        println!(
            "  {:.1} ms  #{} {} under {}  [{}]  combos src {} tgt {}",
            i.ns as f64 / 1e6,
            pos / profiles.len(),
            i.test,
            i.profile,
            split.join(", "),
            i.combos.0,
            i.combos.1
        );
    }

    let cache = &call.result.cache;
    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    let store = call.result.store.clone().unwrap_or_default();
    // The in-memory journal the other workloads' traced call carries only
    // to learn item outcomes; its traffic is not theirs.
    let jstats = match &fixture {
        Some(_) => call.result.journal.clone().unwrap_or_default(),
        None => Default::default(),
    };
    let failed = rep.result.errors();
    let mismatches = campaign_mismatches + rep.mismatches + replay_vs_reference;
    println!(
        "verdict_mismatches {mismatches}, failed_item_share {}",
        failed as f64 / rep.items.len() as f64
    );
    let mut r = Report::new(
        mismatches == 0 && rep.unbalanced == 0,
        rep.items.len(),
        failed,
    );
    r.metric("verdict_mismatches", mismatches as f64, "count");
    r.metric(
        "failed_item_share",
        share(failed as u64, rep.items.len() as u64),
        "ratio",
    );
    r.metric("fuzz.gen_ms", gen_ms, "ms");
    r.metric("fuzz.tests", inputs.tests.len() as f64, "count");
    r.metric("cat.stage_ms", stage_ms, "ms");
    for span in [
        "l2c.prepare",
        "compiler.compile",
        "s2l.extract",
        "mcompare.compare",
    ] {
        r.metric(&format!("{span}_ms"), layer_ms(span), "ms");
        r.metric(&format!("{span}_calls"), layer(span).1 as f64, "count");
    }
    let (src, tgt) = (rep.source, rep.target);
    r.metric("trace.interp_ms", layer_ms("trace.interp"), "ms");
    r.metric("trace.source_combos", src.combos as f64, "count");
    r.metric("trace.target_combos", tgt.combos as f64, "count");
    r.metric(
        "trace.empty_combo_share",
        share(src.empty_combos + tgt.empty_combos, src.combos + tgt.combos),
        "ratio",
    );
    r.metric("exec.source_sim_ms", layer_ms("exec.source_sim"), "ms");
    r.metric("exec.target_sim_ms", layer_ms("exec.target_sim"), "ms");
    r.metric("exec.source_sims", src.sims as f64, "count");
    r.metric("exec.target_sims", tgt.sims as f64, "count");
    r.metric("exec.source_candidates", src.candidates as f64, "count");
    r.metric("exec.target_candidates", tgt.candidates as f64, "count");
    r.metric(
        "exec.pruned_share",
        share(src.pruned + tgt.pruned, src.candidates + tgt.candidates),
        "ratio",
    );
    let lookups = |hits: u64, misses: u64| share(hits, hits + misses);
    r.metric(
        "cache.prepare_hit_share",
        lookups(cache.prepare_hits, cache.prepare_misses),
        "ratio",
    );
    r.metric(
        "cache.source_hit_share",
        lookups(cache.source_hits, cache.source_misses),
        "ratio",
    );
    r.metric(
        "cache.target_hit_share",
        lookups(cache.target_hits, cache.target_misses),
        "ratio",
    );
    r.metric(
        "cache.deduped_sims",
        cache.deduped_simulations() as f64,
        "count",
    );
    r.metric(
        "cache.hit_ms",
        layer_ms("cache.source_hit") + layer_ms("cache.target_hit"),
        "ms",
    );
    r.metric("persist.open_ms", store_open_ms, "ms");
    r.metric(
        "persist.read_ms",
        layer_ms("persist.source_read") + layer_ms("persist.target_read"),
        "ms",
    );
    r.metric("persist.recovered", store.recovered as f64, "count");
    r.metric("persist.disk_hits", cache.disk_hits as f64, "count");
    r.metric("persist.appends", store.appends as f64, "count");
    r.metric("journal.open_ms", journal_open_ms, "ms");
    r.metric("journal.replay_ms", layer_ms("journal.replay"), "ms");
    r.metric("journal.replayed", jstats.replayed as f64, "count");
    r.metric("journal.appends", jstats.appends as f64, "count");
    r.metric("obs.spans", obs_spans as f64, "count");
    r.metric("obs.overhead_pct", overhead_pct, "%");
    r.metric(
        "campaign.busy_share",
        total_ms / 1e3 / (WORKERS as f64 * call.wall),
        "ratio",
    );
    r.metric("pipeline.item_p50_ms", quantile(&item_ms, 0.5), "ms");
    r.metric("pipeline.item_p98_ms", quantile(&item_ms, 0.98), "ms");
    r.metric("pipeline.item_max_ms", quantile(&item_ms, 1.0), "ms");
    r.metric("pipeline.top5_share", top5_ms / total_ms, "ratio");
    r.metric("pipeline.residual_ms", layer_ms("item"), "ms");
    Ok(r)
}

/// The result line.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn new(correct: bool, attempted: usize, failed: usize) -> Report {
        Report {
            correct,
            attempted,
            failed,
            metrics: Vec::new(),
        }
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "{name} = {value}");
        self.metrics.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
