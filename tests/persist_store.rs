//! Crash-matrix pins for the persistent campaign store: a store-backed
//! campaign is **byte-identical** — cells, positive list, accounting — to
//! the uncached driver, cold or warm, across a process "restart" (a fresh
//! [`PersistStore`] over the same log image), after truncating the log at
//! every record boundary and mid-record, after flipping a byte anywhere in
//! the image, after a failed (and torn) append at every write point, and
//! across engine-revision / model-corpus version bumps. Recovery serves
//! only checksum-valid records; damage is dropped and recomputed, never
//! served.

use std::sync::Arc;
use telechat_repro::common::Arch;
use telechat_repro::core::persist::{FaultPlan, FaultyBackend, MemBackend, PersistStore};
use telechat_repro::core::{run_campaign, CampaignResult, CampaignSpec, PipelineConfig};
use telechat_repro::litmus::{parse_c11, LitmusTest};
use telechat_compiler::{CompilerId, OptLevel, Target};

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

fn fixed_suite() -> Vec<LitmusTest> {
    [SB, MP_REL_ACQ, LB_FENCES]
        .iter()
        .map(|s| parse_c11(s).unwrap())
        .collect()
}

/// The two-test suite the crash matrices iterate campaigns over — small
/// enough that one campaign per cut point / fault point stays cheap.
fn small_suite() -> Vec<LitmusTest> {
    [SB, LB_FENCES].iter().map(|s| parse_c11(s).unwrap()).collect()
}

fn spec(threads: usize, store: Option<Arc<PersistStore>>) -> CampaignSpec {
    CampaignSpec {
        compilers: vec![CompilerId::llvm(11), CompilerId::gcc(10)],
        opts: vec![OptLevel::O2, OptLevel::O3],
        targets: vec![Target::new(Arch::AArch64)],
        source_model: "rc11".into(),
        threads,
        cache: true,
        store,
        ..CampaignSpec::default()
    }
}

/// The matrix tests' one-compiler spec (fewer records, deterministic order
/// at a single worker).
fn small_spec(store: Option<Arc<PersistStore>>) -> CampaignSpec {
    CampaignSpec {
        compilers: vec![CompilerId::llvm(11)],
        opts: vec![OptLevel::O2, OptLevel::O3],
        targets: vec![Target::new(Arch::AArch64)],
        source_model: "rc11".into(),
        threads: 1,
        cache: true,
        store,
        ..CampaignSpec::default()
    }
}

fn uncached(spec: &CampaignSpec) -> CampaignSpec {
    CampaignSpec {
        cache: false,
        store: None,
        ..spec.clone()
    }
}

/// Everything a campaign result *means* (cells, positives, accounting) —
/// cache/disk traffic counters excluded, as in `tests/campaign_cache.rs`.
fn fingerprint(r: &CampaignResult) -> (String, Vec<(String, String)>, usize, usize) {
    (
        format!("{:?}", r.cells),
        r.positive_tests.clone(),
        r.source_tests,
        r.compiled_tests,
    )
}

fn open_mem(backend: &MemBackend) -> Arc<PersistStore> {
    Arc::new(PersistStore::open_backend(Box::new(backend.clone())).unwrap())
}

/// A fresh `MemBackend` seeded with a (possibly damaged) log image.
fn mem_with(image: Vec<u8>) -> MemBackend {
    let backend = MemBackend::new();
    *backend.bytes().lock().unwrap() = image;
    backend
}

/// Store log header: MAGIC(8) + format version(4) + engine revision(8) +
/// models fingerprint(8) + header checksum(8). Mirrored from
/// `telechat::persist` so the matrix can address record boundaries.
const HEADER_LEN: usize = 36;

/// `(start, end)` byte span of every record in a valid log image.
fn record_spans(image: &[u8]) -> Vec<(usize, usize)> {
    assert_eq!(&image[..8], b"TCHSTORE", "log starts with the magic");
    let mut spans = Vec::new();
    let mut pos = HEADER_LEN;
    while pos < image.len() {
        let len = u32::from_le_bytes(image[pos..pos + 4].try_into().unwrap()) as usize;
        let end = pos + 4 + len + 8;
        assert!(end <= image.len(), "a valid log ends on a record boundary");
        spans.push((pos, end));
        pos = end;
    }
    spans
}

#[test]
fn store_backed_campaign_is_byte_identical_and_a_restart_hits_disk() {
    let suite = fixed_suite();
    let config = PipelineConfig::default();
    let baseline = run_campaign(&suite, &uncached(&spec(1, None)), &config).unwrap();
    assert!(baseline.total_positive() > 0, "identity must cover positives");

    let mut cold_stats = Vec::new();
    for threads in [1, 4] {
        let backend = MemBackend::new();

        let store = open_mem(&backend);
        let cold = run_campaign(&suite, &spec(threads, Some(store.clone())), &config).unwrap();
        assert_eq!(fingerprint(&cold), fingerprint(&baseline), "cold, threads={threads}");
        assert_eq!(cold.cache.disk_hits, 0, "an empty store answers nothing");
        assert!(cold.cache.disk_writes > 0, "the cold run populates the log");
        assert_eq!(store.stats().appends, cold.cache.disk_writes);
        assert_eq!(store.stats().recovered, 0);

        // "Process restart": a brand-new store over the same log image.
        let warm_store = open_mem(&backend);
        assert_eq!(warm_store.stats().recovered, cold.cache.disk_writes);
        let warm =
            run_campaign(&suite, &spec(threads, Some(warm_store.clone())), &config).unwrap();
        assert_eq!(fingerprint(&warm), fingerprint(&baseline), "warm, threads={threads}");
        assert_eq!(
            warm.cache.disk_hits, cold.cache.disk_writes,
            "every leg the cold run logged answers the warm rerun"
        );
        assert_eq!(warm.cache.disk_writes, 0, "nothing left to persist");
        // The store counts its own hits: every disk hit is a replay.
        assert_eq!(cold.store.as_ref().unwrap().replayed, 0);
        assert_eq!(warm.store.as_ref().unwrap().replayed, warm.cache.disk_hits);
        assert_eq!(warm_store.stats().replayed, warm.cache.disk_hits);
        cold_stats.push(cold.cache);
    }
    // Disk traffic, like the sharing-layer counters, is a pure function of
    // the work list — independent of worker count.
    assert_eq!(cold_stats[0], cold_stats[1]);
}

#[test]
fn recovery_serves_only_the_valid_prefix_at_every_cut_point() {
    let suite = small_suite();
    let config = PipelineConfig::default();
    let baseline = run_campaign(&suite, &uncached(&small_spec(None)), &config).unwrap();

    let backend = MemBackend::new();
    let cold = run_campaign(&suite, &small_spec(Some(open_mem(&backend))), &config).unwrap();
    let image = backend.bytes().lock().unwrap().clone();
    let spans = record_spans(&image);
    assert_eq!(spans.len() as u64, cold.cache.disk_writes);

    // Cut the log at every record boundary, inside every length prefix,
    // mid-payload and inside every checksum — plus the undamaged image.
    let mut cuts = vec![image.len()];
    for &(start, end) in &spans {
        cuts.extend([start, start + 2, (start + 4 + end) / 2, end - 4]);
    }
    for cut in cuts {
        let store = Arc::new(
            PersistStore::open_backend(Box::new(mem_with(image[..cut].to_vec()))).unwrap(),
        );
        let recovered = spans.iter().filter(|&&(_, end)| end <= cut).count();
        assert_eq!(
            store.stats().recovered,
            recovered as u64,
            "cut at {cut}: exactly the whole records before the cut survive"
        );
        let valid_end = spans[..recovered].last().map_or(HEADER_LEN, |s| s.1);
        assert_eq!(store.stats().dropped_bytes, (cut - valid_end) as u64);

        let warm = run_campaign(&suite, &small_spec(Some(store)), &config).unwrap();
        assert_eq!(fingerprint(&warm), fingerprint(&baseline), "cut at {cut}");
        assert_eq!(warm.cache.disk_hits, recovered as u64);
        assert_eq!(warm.store.as_ref().unwrap().replayed, warm.cache.disk_hits);
        assert_eq!(warm.cache.disk_writes, (spans.len() - recovered) as u64);
    }
}

#[test]
fn a_flipped_byte_anywhere_is_dropped_never_served() {
    let suite = small_suite();
    let config = PipelineConfig::default();
    let baseline = run_campaign(&suite, &uncached(&small_spec(None)), &config).unwrap();

    let backend = MemBackend::new();
    run_campaign(&suite, &small_spec(Some(open_mem(&backend))), &config).unwrap();
    let image = backend.bytes().lock().unwrap().clone();
    let spans = record_spans(&image);

    // Flip points: inside the header's magic and checksum, then for every
    // record a length-prefix byte, a payload byte and a checksum byte.
    let mut offsets = vec![1, HEADER_LEN - 1];
    for &(start, end) in &spans {
        offsets.extend([start + 1, start + 4 + 1, end - 2]);
    }
    for off in offsets {
        let faulty = FaultyBackend::new(
            mem_with(image.clone()),
            FaultPlan {
                flip_read_at: Some(off as u64),
                ..FaultPlan::default()
            },
        );
        let store = Arc::new(PersistStore::open_backend(Box::new(faulty)).unwrap());
        let recovered = store.stats().recovered;
        if off < HEADER_LEN {
            assert!(store.stats().reset, "a damaged header resets the log");
            assert_eq!(recovered, 0);
        } else {
            assert!(
                recovered < spans.len() as u64,
                "flip at {off}: the damaged record must not be served"
            );
        }
        let warm = run_campaign(&suite, &small_spec(Some(store)), &config).unwrap();
        assert_eq!(fingerprint(&warm), fingerprint(&baseline), "flip at {off}");
        assert_eq!(
            warm.cache.disk_hits, recovered,
            "exactly the checksum-valid prefix answers the rerun"
        );
    }
}

#[test]
fn a_failed_append_at_every_point_degrades_without_corrupting() {
    let suite = small_suite();
    let config = PipelineConfig::default();
    let baseline = run_campaign(&suite, &uncached(&small_spec(None)), &config).unwrap();

    // Learn the clean run's append schedule: one header + one per record.
    let clean = MemBackend::new();
    let cold = run_campaign(&suite, &small_spec(Some(open_mem(&clean))), &config).unwrap();
    let records = cold.cache.disk_writes;
    let appends = 1 + records;

    for k in 0..appends {
        let backend = MemBackend::new();
        let faulty = FaultyBackend::new(
            backend.clone(),
            FaultPlan {
                fail_append: Some(k as u32),
                // Vary the torn-prefix length across the matrix (0 = the
                // write failed cleanly, nothing landed).
                torn_bytes: Some(k as usize % 9),
                ..FaultPlan::default()
            },
        );
        let store = Arc::new(PersistStore::open_backend(Box::new(faulty)).unwrap());
        let faulted = run_campaign(&suite, &small_spec(Some(store.clone())), &config).unwrap();
        assert_eq!(
            fingerprint(&faulted),
            fingerprint(&baseline),
            "append fault at {k}: store I/O failures never surface"
        );
        assert_eq!(store.stats().write_errors, 1, "append fault at {k}");
        let expected_appends = if k == 0 {
            0 // The header itself failed: the session is memory-only.
        } else {
            records - 1 // One record failed and rolled back; the rest landed.
        };
        assert_eq!(store.stats().appends, expected_appends, "append fault at {k}");

        // Reopen the surviving image fault-free: the rollback left a valid
        // log, and a warm rerun recomputes exactly the missing legs.
        let reopened = open_mem(&backend);
        assert_eq!(reopened.stats().recovered, expected_appends);
        let warm = run_campaign(&suite, &small_spec(Some(reopened)), &config).unwrap();
        assert_eq!(fingerprint(&warm), fingerprint(&baseline), "reopen after fault at {k}");
        assert_eq!(warm.cache.disk_hits, expected_appends);
        assert_eq!(warm.cache.disk_writes, records - expected_appends);
    }
}

#[test]
fn version_bumps_invalidate_wholesale() {
    let suite = small_suite();
    let config = PipelineConfig::default();
    let baseline = run_campaign(&suite, &uncached(&small_spec(None)), &config).unwrap();
    let open = |backend: &MemBackend, revision: u64, models: u64| {
        Arc::new(
            PersistStore::open_versioned(Box::new(backend.clone()), revision, models).unwrap(),
        )
    };

    let backend = MemBackend::new();
    let cold = run_campaign(&suite, &small_spec(Some(open(&backend, 1, 7))), &config).unwrap();
    let records = cold.cache.disk_writes;
    assert!(records > 0);

    // An engine-revision bump, then a model-corpus bump: each mismatched
    // stamp resets the log wholesale — no stale hit can ever be served —
    // and the campaign stays byte-identical while repopulating.
    for (revision, models) in [(2, 7), (2, 9)] {
        let store = open(&backend, revision, models);
        assert!(store.stats().reset, "stamp ({revision}, {models}) resets");
        assert_eq!(store.stats().recovered, 0);
        let r = run_campaign(&suite, &small_spec(Some(store)), &config).unwrap();
        assert_eq!(fingerprint(&r), fingerprint(&baseline));
        assert_eq!(r.cache.disk_hits, 0, "no stale entry survives a bump");
        assert_eq!(r.cache.disk_writes, records);
    }

    // Reopening under the current stamp is warm again.
    let store = open(&backend, 2, 9);
    assert!(!store.stats().reset);
    assert_eq!(store.stats().recovered, records);
    let warm = run_campaign(&suite, &small_spec(Some(store)), &config).unwrap();
    assert_eq!(fingerprint(&warm), fingerprint(&baseline));
    assert_eq!(warm.cache.disk_hits, records);
}
