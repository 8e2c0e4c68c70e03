//! The `store_resume` fixture: the state a user has after a profile-matrix
//! campaign was killed half-way — a leg store warmed by the clang-11 half
//! of the profiles, and a work-item journal cut at the record boundary
//! nearest 50 % of a complete one.
//!
//! Both logs live in memory (`MemBackend`), restored from their images
//! before every campaign call. The library's file backend syncs every
//! append, and on a shared machine one append plus `fdatasync` ranges from
//! 70 to 220 µs within a minute; with about 15,000 journal appends per call
//! the workload would measure the disk rather than the code.
//!
//! The fixture is built in a child process (`--fixture DIR`), so the
//! measuring process's resident set carries nothing of the campaigns that
//! built it.

use crate::reference::Reference;
use crate::workload::{generate, Workload};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telechat::journal::profile_fingerprint;
use telechat::persist::MemBackend;
use telechat::{
    campaign_fingerprint, run_campaign_source, CampaignJournal, CampaignSpec, ItemKey, ItemRecord,
    PersistStore, PipelineConfig, ShardSpec,
};
use telechat_compiler::CompilerId;

const STORE: &str = "store.log";
const JOURNAL: &str = "journal.log";

/// The journal fingerprint of the `store_resume` campaign over an input set.
fn journal_fingerprint(set_fnv: u64) -> u64 {
    let w = Workload::StoreResume;
    campaign_fingerprint(set_fnv, &w.spec(), &PipelineConfig::default())
}

/// A log backend holding a copy of `image`.
fn backend(image: &[u8]) -> MemBackend {
    let mem = MemBackend::new();
    mem.bytes()
        .lock()
        .expect("a fresh backend is not poisoned")
        .extend_from_slice(image);
    mem
}

fn image(mem: &MemBackend) -> Vec<u8> {
    mem.bytes().lock().expect("log image lock").clone()
}

/// Builds the fixture and writes both log images into `dir` (the
/// child-process side). Fails if the campaigns it runs disagree with
/// `reference`.
pub fn build(dir: &Path, seed: u64, reference: &Reference) -> Result<(), String> {
    let w = Workload::StoreResume;
    let config = PipelineConfig::default();
    let inputs = generate(w, seed);
    let err = |e: telechat_common::Error| e.to_string();

    // The two halves of the matrix, each journaled so every item's outcome
    // is known; only the clang half writes the store.
    let store_log = MemBackend::new();
    let mut records: HashMap<ItemKey, ItemRecord> = HashMap::new();
    for (compiler, store) in [(CompilerId::llvm(11), true), (CompilerId::gcc(10), false)] {
        let mut spec = CampaignSpec {
            compilers: vec![compiler],
            ..w.spec()
        };
        let fp = campaign_fingerprint(inputs.set_fnv, &spec, &config);
        let journal = Arc::new(
            CampaignJournal::open_backend(Box::new(MemBackend::new()), fp, ShardSpec::whole())
                .map_err(err)?,
        );
        spec.journal = Some(journal.clone());
        if store {
            let store = PersistStore::open_backend(Box::new(store_log.clone())).map_err(err)?;
            spec.store = Some(Arc::new(store));
        }
        run_campaign_source(&mut inputs.tests.iter().cloned(), &spec, &config).map_err(err)?;
        records.extend(journal.records().into_iter().map(|r| (r.key, r)));
    }

    // The complete journal, in the order a single-worker run completes
    // items (test-major, profiles in sweep order), checked against the
    // reference before it is cut.
    let journal_log = MemBackend::new();
    let journal = CampaignJournal::open_backend(
        Box::new(journal_log.clone()),
        journal_fingerprint(inputs.set_fnv),
        ShardSpec::whole(),
    )
    .map_err(err)?;
    let mut folded = Reference::empty(inputs.set_fnv);
    for test in &inputs.tests {
        folded.source_tests += 1;
        let tfp = test.fingerprint();
        for p in w.spec().profiles() {
            let key = ItemKey {
                test: tfp,
                profile: profile_fingerprint(&p.profile_name()),
            };
            let rec = records.get(&key).ok_or_else(|| {
                format!("no outcome for {} under {}", test.name, p.profile_name())
            })?;
            folded.add(rec.arch, rec.family, rec.opt, &rec.outcome);
            journal.record(rec);
        }
    }
    journal.seal(folded.source_tests as u64, folded.compiled_tests as u64);
    let mismatches = reference.mismatches(&folded);
    if mismatches > 0 {
        return Err(format!(
            "fixture campaigns: {mismatches} verdict mismatch(es)"
        ));
    }

    let full = image(&journal_log);
    let cut = CampaignJournal::record_boundaries(&full)
        .into_iter()
        .min_by_key(|b| b.abs_diff(full.len() / 2))
        .ok_or("journal has no record boundary")?;
    let write = |name: &str, bytes: &[u8]| {
        std::fs::write(dir.join(name), bytes).map_err(|e| format!("{name}: {e}"))
    };
    write(STORE, &image(&store_log))?;
    write(JOURNAL, &full[..cut])
}

/// The fixture's two log images, read once by the measuring process.
pub struct Fixture {
    store: Vec<u8>,
    journal: Vec<u8>,
}

/// The fixture logs restored and opened for one campaign call.
pub struct Opened {
    /// The recovered leg store.
    pub store: Arc<PersistStore>,
    /// The recovered journal.
    pub journal: Arc<CampaignJournal>,
    /// Time `PersistStore::open_backend` took.
    pub store_open: Duration,
    /// Time `CampaignJournal::open_backend` took.
    pub journal_open: Duration,
}

impl Fixture {
    /// Builds the fixture for `seed` in a child process working in `dir`,
    /// and loads its images.
    pub fn make(dir: &Path, seed: u64) -> Result<Fixture, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let status = std::process::Command::new(exe)
            .arg("--fixture")
            .arg(dir)
            .arg("--seed")
            .arg(seed.to_string())
            .status()
            .map_err(|e| format!("fixture process: {e}"))?;
        if !status.success() {
            return Err(format!("fixture process failed: {status}"));
        }
        let read = |name: &str| std::fs::read(dir.join(name)).map_err(|e| format!("{name}: {e}"));
        Ok(Fixture {
            store: read(STORE)?,
            journal: read(JOURNAL)?,
        })
    }

    /// Size of the store image.
    pub fn store_len(&self) -> usize {
        self.store.len()
    }

    /// Size of the cut journal image.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Restores both logs from the images, as the killed run left them, and
    /// opens them, which recovers their indexes.
    pub fn open(&self, set_fnv: u64) -> Result<Opened, String> {
        let err = |e: telechat_common::Error| e.to_string();
        let (store_log, journal_log) = (backend(&self.store), backend(&self.journal));
        let start = Instant::now();
        let store = Arc::new(PersistStore::open_backend(Box::new(store_log)).map_err(err)?);
        let store_open = start.elapsed();
        let start = Instant::now();
        let journal = CampaignJournal::open_backend(
            Box::new(journal_log),
            journal_fingerprint(set_fnv),
            ShardSpec::whole(),
        )
        .map_err(err)?;
        Ok(Opened {
            store,
            journal: Arc::new(journal),
            store_open,
            journal_open: start.elapsed(),
        })
    }
}
