//! Resume/shard pins for the campaign work-item journal: a journaled
//! campaign killed at **every** work-item boundary (and mid-append)
//! resumes to a result byte-identical — cells, positive list, accounting —
//! to an uninterrupted run, at every campaign × simulation thread count
//! and over cold or warm leg stores; the journal counters themselves are
//! thread-count-invariant; supervised retries back off on an injected
//! clock (no wall sleeps) and escalate to a typed permanent failure that
//! heals on resume; and an N-way shard partition covers the work-item
//! space disjointly with `merge` reproducing the unsharded table.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use telechat_compiler::{CompilerFamily, CompilerId, OptLevel, Target};
use telechat_repro::common::{Arch, Error};
use telechat_repro::core::fault::{EngineFault, EngineFaults, FaultAction, FaultLeg};
use telechat_repro::core::journal::profile_fingerprint;
use telechat_repro::core::persist::{MemBackend, PersistStore};
use telechat_repro::core::{
    campaign_fingerprint, merge_journals, run_campaign, CampaignJournal, CampaignResult,
    CampaignSpec, ItemKey, PipelineConfig, ShardSpec,
};
use telechat_repro::litmus::{parse_c11, LitmusTest};

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

const MP_REL_ACQ: &str = r#"
C11 "MP+rel+acq"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_release);
}
P1 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_acquire);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P1:r0=1 /\ P1:r1=0)
"#;

const LB_FENCES: &str = r#"
C11 "LB+fences"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  atomic_thread_fence(memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_relaxed);
}
P1 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
  atomic_thread_fence(memory_order_relaxed);
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
exists (P0:r0=1 /\ P1:r0=1)
"#;

fn suite(texts: &[&str]) -> Vec<LitmusTest> {
    texts.iter().map(|s| parse_c11(s).unwrap()).collect()
}

/// The cut-matrix spec: one compiler × two levels, so the journal stays
/// small enough that a campaign per cut point is cheap.
fn small_spec(threads: usize) -> CampaignSpec {
    CampaignSpec {
        compilers: vec![CompilerId::llvm(11)],
        opts: vec![OptLevel::O2, OptLevel::O3],
        targets: vec![Target::new(Arch::AArch64)],
        threads,
        ..CampaignSpec::default()
    }
}

/// The shard/matrix spec: both compiler families.
fn wide_spec(threads: usize) -> CampaignSpec {
    CampaignSpec {
        compilers: vec![CompilerId::llvm(11), CompilerId::gcc(10)],
        opts: vec![OptLevel::O2, OptLevel::O3],
        targets: vec![Target::new(Arch::AArch64)],
        threads,
        ..CampaignSpec::default()
    }
}

/// Everything a campaign result *means* — traffic counters excluded, as in
/// `tests/persist_store.rs`.
fn fingerprint(r: &CampaignResult) -> (String, Vec<(String, String)>, usize, usize) {
    (
        format!("{:?}", r.cells),
        r.positive_tests.clone(),
        r.source_tests,
        r.compiled_tests,
    )
}

fn open_journal(mem: &MemBackend, fp: u64, shard: ShardSpec) -> Arc<CampaignJournal> {
    Arc::new(CampaignJournal::open_backend(Box::new(mem.clone()), fp, shard).unwrap())
}

/// A fresh `MemBackend` holding the given (possibly truncated) image.
fn mem_with(image: Vec<u8>) -> MemBackend {
    let backend = MemBackend::new();
    *backend.bytes().lock().unwrap() = image;
    backend
}

#[test]
fn resume_is_byte_identical_at_every_cut_point_and_thread_invariant() {
    let tests = suite(&[SB, LB_FENCES]);
    let config = PipelineConfig::default();
    let fp = campaign_fingerprint(0, &small_spec(1), &config);
    let baseline = run_campaign(&tests, &small_spec(1), &config).unwrap();
    let items = baseline.compiled_tests as u64;
    assert!(baseline.total_positive() > 0, "identity must cover positives");

    // The uninterrupted journaled run, to learn the append schedule.
    let mem = MemBackend::new();
    let mut spec = small_spec(1);
    spec.journal = Some(open_journal(&mem, fp, ShardSpec::whole()));
    let cold = run_campaign(&tests, &spec, &config).unwrap();
    assert_eq!(fingerprint(&cold), fingerprint(&baseline), "journal attach is invisible");
    let stats = cold.journal.as_ref().unwrap();
    assert_eq!(stats.appends, items + 1, "one record per item plus the seal");
    assert_eq!(stats.replayed, 0);

    let image = mem.bytes().lock().unwrap().clone();
    let bounds = CampaignJournal::record_boundaries(&image);
    assert_eq!(bounds.len() as u64, 1 + items + 1, "header + items + summary");
    assert_eq!(*bounds.last().unwrap(), image.len());

    // Kill the campaign at every record boundary (a crash between appends)
    // and five bytes into every record (a crash mid-append): the resumed
    // campaign replays exactly the records before the cut, recomputes the
    // rest, and lands byte-identical — at one worker and at four, with
    // identical journal counters.
    let mut cuts: Vec<usize> = bounds.clone();
    cuts.extend(bounds[..bounds.len() - 1].iter().map(|b| b + 5));
    for cut in cuts {
        let recovered = bounds.iter().filter(|&&b| b <= cut).count() as u64 - 1;
        let replayed = recovered.min(items);
        let mut per_thread = Vec::new();
        for threads in [1usize, 4] {
            let mem = mem_with(image[..cut].to_vec());
            let journal = open_journal(&mem, fp, ShardSpec::whole());
            assert_eq!(journal.stats().recovered, recovered, "cut at {cut}");
            let mut spec = small_spec(threads);
            spec.journal = Some(journal);
            let resumed = run_campaign(&tests, &spec, &config).unwrap();
            assert_eq!(
                fingerprint(&resumed),
                fingerprint(&baseline),
                "cut at {cut}, threads={threads}"
            );
            let stats = resumed.journal.clone().unwrap();
            assert_eq!(stats.replayed, replayed, "cut at {cut}");
            // Recomputed items are re-journaled; the seal is appended only
            // when the recovered log had not already sealed.
            let reseal = u64::from(recovered < items + 1);
            assert_eq!(stats.appends, items - replayed + reseal, "cut at {cut}");
            assert!(!stats.read_only);
            per_thread.push(stats);

            // The resumed journal is complete: one more reopen replays
            // everything and recomputes nothing.
            let journal = open_journal(&mem, fp, ShardSpec::whole());
            assert_eq!(journal.len() as u64, items);
            assert_eq!(journal.summary(), Some((2, items)));
        }
        assert_eq!(per_thread[0], per_thread[1], "journal counters are thread-invariant");
    }
}

#[test]
fn resume_matrix_campaign_and_sim_threads_cold_and_warm_store() {
    let tests = suite(&[SB, MP_REL_ACQ, LB_FENCES]);
    let config = PipelineConfig::default();
    let fp = campaign_fingerprint(0, &wide_spec(1), &config);
    let baseline = run_campaign(&tests, &wide_spec(1), &config).unwrap();
    let items = baseline.compiled_tests as u64;

    // Build the journal image to resume from, cut at roughly half the
    // items, plus a warm leg-store image from an unrelated full run.
    let jm = MemBackend::new();
    let mut spec = wide_spec(1);
    spec.journal = Some(open_journal(&jm, fp, ShardSpec::whole()));
    run_campaign(&tests, &spec, &config).unwrap();
    let image = jm.bytes().lock().unwrap().clone();
    let bounds = CampaignJournal::record_boundaries(&image);
    let cut = bounds[bounds.len() / 2];
    let replayed = (bounds.iter().filter(|&&b| b <= cut).count() as u64 - 1).min(items);

    let warm_store_mem = MemBackend::new();
    {
        let mut spec = wide_spec(1);
        spec.store = Some(Arc::new(
            PersistStore::open_backend(Box::new(warm_store_mem.clone())).unwrap(),
        ));
        run_campaign(&tests, &spec, &config).unwrap();
    }

    let mut all_stats = Vec::new();
    for campaign_threads in [1usize, 4] {
        for sim_threads in [1usize, 4] {
            for warm_store in [false, true] {
                let mut config = PipelineConfig::default();
                config.sim.threads = sim_threads;
                let journal = open_journal(&mem_with(image[..cut].to_vec()), fp, ShardSpec::whole());
                let mut spec = wide_spec(campaign_threads);
                spec.journal = Some(journal);
                let store_mem = if warm_store {
                    warm_store_mem.clone()
                } else {
                    MemBackend::new()
                };
                spec.store = Some(Arc::new(
                    PersistStore::open_backend(Box::new(store_mem)).unwrap(),
                ));
                let resumed = run_campaign(&tests, &spec, &config).unwrap();
                let label = format!(
                    "campaign={campaign_threads} sim={sim_threads} warm_store={warm_store}"
                );
                assert_eq!(fingerprint(&resumed), fingerprint(&baseline), "{label}");
                let stats = resumed.journal.clone().unwrap();
                assert_eq!(stats.replayed, replayed, "{label}");
                all_stats.push(stats);
            }
        }
    }
    // One journal-counter value across the whole matrix: campaign threads,
    // simulation threads and store temperature all invisible.
    for stats in &all_stats[1..] {
        assert_eq!(stats, &all_stats[0]);
    }
}

#[test]
fn supervised_retries_back_off_on_the_injected_clock() {
    let tests = suite(&[SB, LB_FENCES]);
    let config = PipelineConfig::default();
    let mut spec = small_spec(1);
    spec.opts = vec![OptLevel::O2];
    let baseline = run_campaign(&tests, &spec, &config).unwrap();

    // Two consecutive transient failures on SB's target leg: the item
    // needs the initial attempt plus two supervised retries to complete.
    let sleeps: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
    let recorded = sleeps.clone();
    let faults = EngineFaults::new().with_retries(4, Duration::from_secs(30), move |d| {
        recorded.lock().unwrap().push(d)
    });
    faults.arm(EngineFault {
        leg: FaultLeg::Target,
        test_contains: "SB".into(),
        action: FaultAction::Panic,
        fires: 2,
        transient: true,
    });
    spec.faults = Some(faults);
    let started = Instant::now();
    let r = run_campaign(&tests, &spec, &config).unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the injected clock must absorb the backoff — no wall sleep"
    );
    assert_eq!(fingerprint(&r), fingerprint(&baseline), "retries absorb the transients");
    assert_eq!(
        *sleeps.lock().unwrap(),
        vec![Duration::from_secs(30), Duration::from_secs(60)],
        "exponential schedule, delivered through the injected sleeper"
    );
}

#[test]
fn exhausted_retries_escalate_to_a_typed_error_and_heal_on_resume() {
    let tests = suite(&[SB, LB_FENCES]);
    let config = PipelineConfig::default();
    let mut clean_spec = small_spec(1);
    clean_spec.opts = vec![OptLevel::O2];
    let fp = campaign_fingerprint(0, &clean_spec, &config);
    let baseline = run_campaign(&tests, &clean_spec, &config).unwrap();
    let key = (Arch::AArch64, CompilerFamily::Llvm, OptLevel::O2);

    // More transient firings than the policy grants attempts: the item
    // escalates to the typed permanent failure instead of retrying
    // forever, and the failure is fault-class — never journaled.
    assert!(Error::RetriesExhausted { attempts: 2 }.is_fault());
    let faults = EngineFaults::new().with_retries(2, Duration::ZERO, std::thread::sleep);
    faults.arm(EngineFault {
        leg: FaultLeg::Target,
        test_contains: "SB".into(),
        action: FaultAction::Panic,
        fires: 5,
        transient: true,
    });
    let mem = MemBackend::new();
    let mut spec = clean_spec.clone();
    spec.faults = Some(faults);
    spec.journal = Some(open_journal(&mem, fp, ShardSpec::whole()));
    let r = run_campaign(&tests, &spec, &config).unwrap();
    assert_eq!(r.cells[&key].errors, baseline.cells[&key].errors + 1);
    assert_eq!(r.cells[&key].total(), baseline.cells[&key].total());
    let stats = r.journal.clone().unwrap();
    assert_eq!(
        stats.appends,
        (baseline.compiled_tests - 1) as u64 + 1,
        "the escalated item is not journaled; everything else and the seal are"
    );

    // Resume after the (transient) infrastructure fault cleared: the
    // escalated item recomputes cleanly and the campaign heals to the
    // unfaulted baseline — an `Error` cell is never replayed from the log.
    let journal = open_journal(&mem, fp, ShardSpec::whole());
    assert_eq!(journal.len(), baseline.compiled_tests - 1);
    let mut spec = clean_spec.clone();
    spec.journal = Some(journal);
    let healed = run_campaign(&tests, &spec, &config).unwrap();
    assert_eq!(fingerprint(&healed), fingerprint(&baseline), "the fault heals on resume");
    let stats = healed.journal.clone().unwrap();
    assert_eq!(stats.replayed, (baseline.compiled_tests - 1) as u64);
    assert_eq!(stats.appends, 1, "exactly the healed item is appended; the seal is idempotent");
}

#[test]
fn shards_cover_disjointly_and_merge_reproduces_the_unsharded_table() {
    let tests = suite(&[SB, MP_REL_ACQ, LB_FENCES]);
    let config = PipelineConfig::default();
    let baseline = run_campaign(&tests, &wide_spec(1), &config).unwrap();
    let fp = campaign_fingerprint(0, &wide_spec(1), &config);
    let items = baseline.compiled_tests;

    // The partition is a pure function of the item keys — assert the
    // disjoint cover directly before running anything.
    let profiles = wide_spec(1).profiles();
    for n in [2u32, 4] {
        let mut covered = 0usize;
        for test in &tests {
            for profile in &profiles {
                let key = ItemKey {
                    test: test.fingerprint(),
                    profile: profile_fingerprint(&profile.profile_name()),
                };
                assert!(key.shard(n) < n);
                covered += 1;
            }
        }
        assert_eq!(covered, items);
    }

    for n in [2u32, 4] {
        let mut backends = Vec::new();
        let mut shard_lens = Vec::new();
        for i in 0..n {
            let shard = ShardSpec { index: i, count: n };
            let mem = MemBackend::new();
            let mut spec = wide_spec(2);
            spec.shard = Some(shard);
            spec.journal = Some(open_journal(&mem, fp, shard));
            let r = run_campaign(&tests, &spec, &config).unwrap();
            // Accounting totals describe the full stream; cells hold only
            // this shard's items.
            assert_eq!(r.source_tests, baseline.source_tests, "shard {shard}");
            assert_eq!(r.compiled_tests, items, "shard {shard}");
            let cell_total: usize = r.cells.values().map(|c| c.total()).sum();
            shard_lens.push(cell_total);
            backends.push(mem);
        }
        assert_eq!(
            shard_lens.iter().sum::<usize>(),
            items,
            "{n}-way partition covers every item exactly once"
        );

        // `merge` adopts the shard journals by header and reproduces the
        // unsharded result byte-identically.
        let journals: Vec<CampaignJournal> = backends
            .iter()
            .map(|mem| {
                CampaignJournal::open_existing_backend(Box::new(mem.clone()), "mem").unwrap()
            })
            .collect();
        let merged = merge_journals(&journals).unwrap();
        assert_eq!(fingerprint(&merged), fingerprint(&baseline), "{n}-way merge");
    }
}

#[test]
fn a_journal_for_the_wrong_shard_is_a_typed_configuration_error() {
    let tests = suite(&[SB]);
    let config = PipelineConfig::default();
    let fp = campaign_fingerprint(0, &small_spec(1), &config);
    let journal = open_journal(
        &MemBackend::new(),
        fp,
        ShardSpec { index: 1, count: 2 },
    );
    let mut spec = small_spec(1);
    spec.journal = Some(journal);
    spec.shard = Some(ShardSpec { index: 0, count: 2 });
    let r = run_campaign(&tests, &spec, &config);
    assert!(matches!(r, Err(Error::Journal(_))), "{r:?}");
}
