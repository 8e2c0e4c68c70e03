//! Failure-isolation pins: injected engine faults (panics, stalls) on a
//! simulation leg are contained to the faulted work item — the rest of the
//! campaign completes, items parked on a poisoned gate are handed back (a
//! poisoned gate never becomes a hang), transient faults retry exactly
//! once, and a stalled leg overrunning [`SimConfig::deadline`] becomes a
//! typed error cell instead of wedging the campaign — cut short at the
//! deadline, never cached, and never left running behind it.
//!
//! Every test arms its own [`EngineFaults`] plan on its own campaign, so
//! the tests run in parallel without seeing each other's faults.

use std::sync::mpsc;
use std::time::{Duration, Instant};
use telechat_repro::common::Arch;
use telechat_repro::core::fault::{EngineFault, EngineFaults, FaultAction, FaultLeg};
use telechat_repro::core::{
    run_campaign, run_campaign_source, CampaignCell, CampaignResult, CampaignSpec, PipelineConfig,
};
use telechat_repro::litmus::{parse_c11, LitmusTest};
use telechat_compiler::{CompilerFamily, CompilerId, OptLevel, Target};

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

/// A plan with one fault armed on the `SB` test.
fn plan(leg: FaultLeg, action: FaultAction, fires: u32, transient: bool) -> EngineFaults {
    let faults = EngineFaults::new();
    faults.arm(EngineFault {
        leg,
        test_contains: "SB".into(),
        action,
        fires,
        transient,
    });
    faults
}

/// `spec` running under `faults`.
fn faulted(faults: &EngineFaults, spec: CampaignSpec) -> CampaignSpec {
    CampaignSpec {
        faults: Some(faults.clone()),
        ..spec
    }
}

fn suite(texts: &[&str]) -> Vec<LitmusTest> {
    texts.iter().map(|s| parse_c11(s).unwrap()).collect()
}

fn spec(threads: usize, compilers: Vec<CompilerId>, opts: Vec<OptLevel>) -> CampaignSpec {
    CampaignSpec {
        compilers,
        opts,
        targets: vec![Target::new(Arch::AArch64)],
        source_model: "rc11".into(),
        threads,
        cache: true,
        ..CampaignSpec::default()
    }
}

fn fingerprint(r: &CampaignResult) -> (String, Vec<(String, String)>, usize, usize) {
    (
        format!("{:?}", r.cells),
        r.positive_tests.clone(),
        r.source_tests,
        r.compiled_tests,
    )
}

fn total_errors(r: &CampaignResult) -> usize {
    r.cells.values().map(|c| c.errors).sum()
}

/// Runs the campaign on a helper thread with a generous wall-clock bound,
/// so an isolation bug that *hangs* the campaign (a poisoned gate that
/// never wakes its waiters) fails the test instead of wedging CI.
fn run_bounded(
    tests: Vec<LitmusTest>,
    spec: CampaignSpec,
    config: PipelineConfig,
) -> CampaignResult {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(run_campaign(&tests, &spec, &config).unwrap());
    });
    rx.recv_timeout(Duration::from_secs(300))
        .expect("campaign must complete — a panicked lead must wake its followers, not hang them")
}

/// True if the given fault is still armed (probed by firing it from under
/// `catch_unwind`); used to prove an armed panic actually fired — and
/// burned — inside the campaign rather than the test passing vacuously.
fn panic_still_armed(faults: &EngineFaults, leg: FaultLeg, name: &str) -> bool {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| faults.fire(leg, name, None))).is_err()
}

#[test]
fn lead_panic_in_the_source_leg_wakes_followers_and_the_campaign_heals() {
    let tests = suite(&[SB, MP_REL_ACQ, LB_FENCES]);
    let both = vec![CompilerId::llvm(11), CompilerId::gcc(10)];
    let o23 = vec![OptLevel::O2, OptLevel::O3];
    let config = PipelineConfig::default();
    let baseline =
        run_campaign(&tests, &spec(1, both.clone(), o23.clone()), &config).unwrap();

    // The lead work item's warm-up is the first source-leg compute for the
    // test, taken inside `Striped::get_or_compute` — the panic poisons the
    // shared gate while the followers are queued behind it.
    let faults = plan(FaultLeg::Source, FaultAction::Panic, 1, false);
    let r = run_bounded(tests, faulted(&faults, spec(4, both, o23)), config);
    assert!(
        !panic_still_armed(&faults, FaultLeg::Source, "SB"),
        "the armed fault must have fired inside the campaign"
    );
    // The poisoned entry is retried by the next claimant (the fault is
    // burned by then), so the campaign heals completely: every follower
    // woke, recomputed and classified — byte-identical, zero error cells.
    assert_eq!(fingerprint(&r), fingerprint(&baseline));
    assert_eq!(total_errors(&r), 0);
}

#[test]
fn a_non_transient_panic_is_one_typed_error_cell_not_a_campaign_failure() {
    let tests = suite(&[SB, LB_FENCES]);
    let one = spec(1, vec![CompilerId::llvm(11)], vec![OptLevel::O2]);
    let config = PipelineConfig::default();
    let baseline = run_campaign(&tests, &one, &config).unwrap();
    let key = (Arch::AArch64, CompilerFamily::Llvm, OptLevel::O2);
    assert_eq!(baseline.cells[&key].errors, 0);

    let faults = plan(FaultLeg::Target, FaultAction::Panic, 1, false);
    let r = run_campaign(&tests, &faulted(&faults, one), &config).unwrap();
    assert!(!panic_still_armed(&faults, FaultLeg::Target, "SB"));
    let cell = &r.cells[&key];
    let base = &baseline.cells[&key];
    assert_eq!(cell.errors, 1, "the panicked item is a typed error");
    assert_eq!(cell.total(), base.total(), "every work item was classified");
    // Only `SB` was perturbed: all other positives are preserved.
    let non_sb = |r: &CampaignResult| -> Vec<(String, String)> {
        r.positive_tests
            .iter()
            .filter(|(test, _)| test != "SB")
            .cloned()
            .collect()
    };
    assert_eq!(non_sb(&r), non_sb(&baseline));
}

#[test]
fn a_transient_fault_is_retried_once_and_leaves_no_trace() {
    let tests = suite(&[SB, LB_FENCES]);
    let one = spec(1, vec![CompilerId::llvm(11)], vec![OptLevel::O2]);
    let config = PipelineConfig::default();
    let baseline = run_campaign(&tests, &one, &config).unwrap();

    // The target leg fires under the profile-derived test name
    // (`clang-11-O2-AArch64.SB`); the retry classifier matches it back to
    // the campaign's source name by containment.
    let faults = plan(FaultLeg::Target, FaultAction::Panic, 1, true);
    let r = run_campaign(&tests, &faulted(&faults, one), &config).unwrap();
    assert!(!panic_still_armed(&faults, FaultLeg::Target, "SB"));
    assert_eq!(
        fingerprint(&r),
        fingerprint(&baseline),
        "one retry absorbs an injected transient completely"
    );
    assert_eq!(total_errors(&r), 0);
    assert!(
        !faults.take_transient("SB"),
        "the transient record is consumed by the retry, not leaked"
    );
}

#[test]
fn a_stalled_leg_overruns_the_deadline_into_a_typed_error() {
    let tests = suite(&[SB]);
    let one = spec(1, vec![CompilerId::llvm(11)], vec![OptLevel::O2]);
    let baseline = run_campaign(&tests, &one, &PipelineConfig::default()).unwrap();

    // The deadline knob alone must be inert: it bounds wall-clock, it is
    // not part of the simulation semantics (and not fingerprinted).
    let mut config = PipelineConfig::default();
    config.sim.deadline = Some(Duration::from_secs(120));
    let generous = run_campaign(&tests, &one, &config).unwrap();
    assert_eq!(fingerprint(&generous), fingerprint(&baseline));
    assert_eq!(total_errors(&generous), 0);

    // A 5 s stall against a 300 ms deadline: the stall is cut short at
    // the deadline, well before it would clear, and the campaign moves on.
    let stall = Duration::from_secs(5);
    let faults = plan(FaultLeg::Target, FaultAction::Stall(stall), 1, false);
    config.sim.deadline = Some(Duration::from_millis(300));
    let started = Instant::now();
    let r = run_campaign(&tests, &faulted(&faults, one), &config).unwrap();
    assert!(
        started.elapsed() < stall,
        "the campaign must not wait out the stall ({:?})",
        started.elapsed()
    );
    let key = (Arch::AArch64, CompilerFamily::Llvm, OptLevel::O2);
    assert_eq!(r.cells[&key].errors, 1, "the overrun is a typed error cell");
    assert_eq!(r.cells[&key].total(), 1);
    assert!(r.positive_tests.is_empty());
}

#[test]
fn a_panicking_target_leg_hands_back_the_items_parked_on_it() {
    // Every profile of one architecture: most of a test's 9 profiles
    // extract identical code and share one target leg.
    let tests = suite(&[SB, MP_REL_ACQ, LB_FENCES]);
    let both = vec![CompilerId::llvm(11), CompilerId::gcc(10)];
    let sweep = |threads| spec(threads, both.clone(), OptLevel::CAMPAIGN.to_vec());
    let config = PipelineConfig::default();
    // The first `SB` target leg computed stalls, so that the other workers
    // find it in flight and park on it, then panics and poisons its gate.
    let arm = |transient| {
        plan(
            FaultLeg::Target,
            FaultAction::PanicAfter(Duration::from_millis(300)),
            1,
            transient,
        )
    };

    // The blocking driver: a single worker never finds a leg in flight on
    // another worker, so it never parks.
    let faults = arm(true);
    let blocking = run_campaign(&tests, &faulted(&faults, sweep(1)), &config).unwrap();
    assert!(!panic_still_armed(&faults, FaultLeg::Target, "SB"));
    assert_eq!(total_errors(&blocking), 0, "the transient fault healed");

    // Four workers park on the stalled leg. The poisoned gate hands them
    // back, one of them recomputes, the panicked item retries, and the
    // campaign terminates with the blocking driver's cells.
    let faults = arm(true);
    let parking = CampaignSpec {
        metrics: true,
        ..faulted(&faults, sweep(4))
    };
    let r = run_bounded(tests.clone(), parking, config.clone());
    assert!(!panic_still_armed(&faults, FaultLeg::Target, "SB"));
    assert_eq!(fingerprint(&r), fingerprint(&blocking));
    let obs = r.obs.as_ref().unwrap();
    assert!(
        obs.counter("campaign.parked").unwrap() > 0,
        "items parked on the stalled leg"
    );
    assert_eq!(obs.counter("cache.gate_waits"), Some(0), "no worker blocked");

    // Without the retry, the panic costs exactly the item that computed
    // the leg: every parked item is handed back and classified.
    let faults = arm(false);
    let r = run_bounded(tests, faulted(&faults, sweep(4)), config);
    assert!(!panic_still_armed(&faults, FaultLeg::Target, "SB"));
    assert_eq!(total_errors(&r), 1, "one typed error cell");
    for (key, cell) in &blocking.cells {
        assert_eq!(r.cells[key].total(), cell.total(), "{key:?}");
    }
}

#[test]
fn items_parked_on_an_abandoned_leg_fail_at_the_deadline_instead_of_hanging() {
    let tests = suite(&[SB, MP_REL_ACQ, LB_FENCES]);
    let both = vec![CompilerId::llvm(11), CompilerId::gcc(10)];
    let sweep = CampaignSpec {
        metrics: true,
        ..spec(4, both, OptLevel::CAMPAIGN.to_vec())
    };
    let mut config = PipelineConfig::default();
    config.sim.deadline = Some(Duration::from_millis(300));
    let baseline = run_campaign(&tests, &sweep, &config).unwrap();
    assert_eq!(total_errors(&baseline), 0);

    // Every `SB` target-leg computation stalls: each is cut short at its
    // own item's deadline, which hands the items parked on it back to
    // recompute — and stall again — until they too are past their
    // deadlines. None of them waits for a stall to clear.
    let stall = Duration::from_secs(5);
    let faults = plan(FaultLeg::Target, FaultAction::Stall(stall), u32::MAX, false);
    let started = Instant::now();
    let r = run_bounded(tests, faulted(&faults, sweep), config);
    assert!(
        started.elapsed() < stall,
        "the campaign must not wait out the stall ({:?})",
        started.elapsed()
    );
    let obs = r.obs.as_ref().unwrap();
    let parked = obs.counter("campaign.parked").unwrap();
    assert!(parked > 0, "items parked on the stalled leg");
    assert!(
        total_errors(&r) > 1,
        "the abandoned item and the items parked past the deadline are error cells"
    );
    for (key, cell) in &baseline.cells {
        assert_eq!(r.cells[key].total(), cell.total(), "{key:?}");
    }
}

#[test]
fn a_deadline_cut_leg_is_never_cached_and_a_later_item_recomputes_it() {
    // `SB` compiles to the same code at clang -O2 and -O3, so the two
    // items share one target leg. One worker runs the -O2 lead first.
    let tests = suite(&[SB]);
    let o2 = (Arch::AArch64, CompilerFamily::Llvm, OptLevel::O2);
    let o3 = (Arch::AArch64, CompilerFamily::Llvm, OptLevel::O3);
    let sweep = spec(1, vec![CompilerId::llvm(11)], vec![OptLevel::O2, OptLevel::O3]);
    let mut config = PipelineConfig::default();
    config.sim.deadline = Some(Duration::from_millis(300));
    let baseline = run_campaign(&tests, &sweep, &config).unwrap();
    assert_eq!(
        (baseline.cache.target_misses, baseline.cache.target_hits),
        (1, 1),
        "the two items share one target leg"
    );

    // The lead's computation of the shared leg stalls past its deadline.
    let faults = plan(FaultLeg::Target, FaultAction::Stall(Duration::from_secs(5)), 1, false);
    let r = run_campaign(&tests, &faulted(&faults, sweep), &config).unwrap();
    // Only the lead's cell is an error: the -O3 item did not replay the
    // cut leg from the cache but recomputed it, with its real result.
    assert_eq!(
        r.cells[&o2],
        CampaignCell {
            errors: 1,
            ..CampaignCell::default()
        }
    );
    assert_eq!(r.cells[&o3], baseline.cells[&o3]);
    assert_eq!(
        (r.cache.target_misses, r.cache.target_hits),
        (2, 0),
        "the cut leg was computed twice and never served from the cache"
    );
}

#[test]
fn nothing_outlives_a_deadline_cut() {
    // The lead item's source leg stalls for 5 s against a 300 ms deadline;
    // the follower parked on that leg is handed back when the stall is cut
    // and recomputes it.
    let tests = suite(&[SB]);
    let sweep = spec(2, vec![CompilerId::llvm(11)], vec![OptLevel::O2, OptLevel::O3]);
    let mut config = PipelineConfig::default();
    config.sim.deadline = Some(Duration::from_millis(300));
    let stall = Duration::from_secs(5);
    let faults = plan(FaultLeg::Source, FaultAction::Stall(stall), 1, false);
    let started = Instant::now();
    let r = run_campaign_source(&mut tests.into_iter(), &faulted(&faults, sweep), &config).unwrap();
    let took = started.elapsed();
    assert_eq!(faults.sleeping(), 0, "no stalled leg is still running");
    assert!(took < stall / 2, "returned at the deadline, not the stall ({took:?})");
    let errors: usize = r.cells.values().map(|c| c.errors).sum();
    assert_eq!(errors, 1, "only the item whose leg was cut fails: {:?}", r.cells);
}
