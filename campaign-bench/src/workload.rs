//! The three workloads: their test sets, campaign specs, models and input
//! fingerprints. All of them run the default `PipelineConfig`, as the CLI
//! does.
//!
//! Each workload's test *set* is fixed; `--seed` picks the order the
//! campaign pulls the tests in (a seeded Fisher–Yates shuffle). Campaign
//! results are independent of pull order (cells aggregate by profile, the
//! positive list is sorted), so one stored reference per workload checks
//! every seed. The fuzz workload is pinned to fuzz seed 7 because its
//! straggler is what it measures: other fuzz seeds' 150-test streams have
//! no comparable item and finish in about a second.

use std::time::Instant;
use telechat::CampaignSpec;
use telechat_cat::CatModel;
use telechat_common::{Arch, XorShiftRng};
use telechat_compiler::{CompilerId, OptLevel, Target};
use telechat_fuzz::{corpus, fnv1a64, FuzzConfig, FuzzSource, GenConfig};
use telechat_litmus::print::to_litmus;
use telechat_litmus::LitmusTest;

/// Campaign workers in every workload: one per core of a two-core machine.
pub const WORKERS: usize = 2;

/// The fuzz stream seed `fuzz_seed7` is pinned to.
const FUZZ_SEED: u64 = 7;
/// Tests in the fuzz stream.
const FUZZ_TESTS: usize = 150;
/// Communication-edge budget of the exhaustive profile-matrix corpus.
const MATRIX_COMM: usize = 3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The seed-7 fuzz stream under clang-11 -O2 AArch64.
    FuzzSeed7,
    /// The comm ≤ 3 corpus under the 54 Table IV profiles, cache on.
    ProfileMatrix,
    /// The profile matrix resumed from a half journal over a half-warm
    /// store, telemetry on.
    StoreResume,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` gates the matrix two; `fuzz_seed7`
    /// spreads too widely from run to run on a shared machine and runs on
    /// demand.
    pub const ALL: [Workload; 3] = [
        Workload::FuzzSeed7,
        Workload::ProfileMatrix,
        Workload::StoreResume,
    ];

    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FuzzSeed7 => "fuzz_seed7",
            Workload::ProfileMatrix => "profile_matrix",
            Workload::StoreResume => "store_resume",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload whose stored reference this one must reproduce: a
    /// resumed campaign must equal the uninterrupted one.
    pub fn reference(self) -> Workload {
        match self {
            Workload::StoreResume => Workload::ProfileMatrix,
            w => w,
        }
    }

    /// The campaign spec (store, journal and telemetry are attached per
    /// call by the caller).
    pub fn spec(self) -> CampaignSpec {
        let spec = match self {
            Workload::FuzzSeed7 => CampaignSpec {
                compilers: vec![CompilerId::llvm(11)],
                opts: vec![OptLevel::O2],
                targets: vec![Target::new(Arch::AArch64)],
                ..CampaignSpec::default()
            },
            Workload::ProfileMatrix | Workload::StoreResume => CampaignSpec::table_iv("rc11"),
        };
        CampaignSpec {
            threads: WORKERS,
            cache: true,
            ..spec
        }
    }

    /// Every bundled model a campaign of this workload loads: the source
    /// model, then each target architecture's default model.
    pub fn models(self) -> Vec<String> {
        let spec = self.spec();
        let mut names = vec![spec.source_model.clone()];
        for t in &spec.targets {
            let name = t.arch.default_model().to_string();
            if !names.contains(&name) {
                names.push(name);
            }
        }
        names
    }
}

/// A workload's generated inputs.
pub struct Inputs {
    /// The tests in the order the campaign pulls them.
    pub tests: Vec<LitmusTest>,
    /// Fingerprint of the test set in generation order: the fuzz stream's
    /// `FuzzSource::stream_hash`, or the corpus fnv `telechat-fuzz
    /// generate` prints. Seed-independent; stored in the reference.
    pub set_fnv: u64,
    /// The same chained fnv over the pull order: what `--seed` changes.
    pub feed_fnv: u64,
}

/// Generates `w`'s inputs for `seed`.
pub fn generate(w: Workload, seed: u64) -> Inputs {
    let (mut tests, set_fnv) = match w {
        Workload::FuzzSeed7 => {
            let mut source = FuzzSource::new(&FuzzConfig::smoke(FUZZ_SEED, FUZZ_TESTS));
            let tests: Vec<LitmusTest> = source.by_ref().collect();
            (tests, source.stream_hash())
        }
        Workload::ProfileMatrix | Workload::StoreResume => {
            let tests: Vec<LitmusTest> = corpus(&GenConfig::corpus(MATRIX_COMM))
                .into_iter()
                .map(|(_, t)| t)
                .collect();
            let fnv = chained_fnv(&tests);
            (tests, fnv)
        }
    };
    let mut rng = XorShiftRng::seed_from_u64(seed);
    for i in (1..tests.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        tests.swap(i, j);
    }
    let feed_fnv = chained_fnv(&tests);
    Inputs {
        tests,
        set_fnv,
        feed_fnv,
    }
}

/// Chained FNV-1a over the printed tests, as the fuzz CLI fingerprints a
/// corpus.
fn chained_fnv(tests: &[LitmusTest]) -> u64 {
    tests
        .iter()
        .fold(0, |h, t| fnv1a64(h, to_litmus(t).as_bytes()))
}

/// Parses and stages every model `w` uses, fresh (not through the
/// process-wide registry), returning the time it took.
pub fn stage_models(w: Workload) -> std::time::Duration {
    let start = Instant::now();
    for name in w.models() {
        let model = CatModel::bundled(&name).expect("bundled model");
        std::hint::black_box(&model);
    }
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_permute_a_fixed_set() {
        let a = generate(Workload::ProfileMatrix, 7);
        let b = generate(Workload::ProfileMatrix, 7);
        let c = generate(Workload::ProfileMatrix, 8);
        assert_eq!(a.tests.len(), 568);
        assert_eq!(a.set_fnv, 0x9e9a_9f7e_76b0_08a9);
        assert_eq!((a.set_fnv, a.feed_fnv), (b.set_fnv, b.feed_fnv));
        assert_eq!(a.set_fnv, c.set_fnv);
        assert_ne!(a.feed_fnv, c.feed_fnv);
    }

    #[test]
    fn fuzz_set_is_the_cli_stream() {
        let f = generate(Workload::FuzzSeed7, 3);
        assert_eq!(f.tests.len(), 150);
        assert_eq!(f.set_fnv, 0xdc07_619d_381c_6637);
    }

    #[test]
    fn matrix_spec_is_table_iv() {
        assert_eq!(Workload::ProfileMatrix.spec().profiles().len(), 54);
        assert_eq!(Workload::FuzzSeed7.spec().profiles().len(), 1);
        assert_eq!(Workload::ProfileMatrix.models().len(), 7);
    }
}
