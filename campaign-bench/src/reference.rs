//! Stored verdict references and the comparison that counts mismatches.
//!
//! A reference holds what a campaign *means* — the cells, the sorted
//! positive list, the source/compiled counts and the input-set fingerprint
//! — and nothing that an engine revision may legitimately change, such as
//! candidate counts. It is produced by the uncached single-worker driver
//! (`cache: false, threads: 1`), independently of the sharing layer, the
//! store and the journal the measured runs exercise.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use telechat::{CampaignResult, ItemOutcome};
use telechat_common::Arch;
use telechat_compiler::{CompilerFamily, OptLevel};

/// Bins of one cell, in `CampaignCell` field order.
const BINS: [&str; 6] = ["positive", "negative", "pass", "crashed", "racy", "errors"];
/// Index of the error bin in [`BINS`].
const ERRORS: usize = 5;

/// The stored name of a campaign cell.
fn cell_key(arch: Arch, family: CompilerFamily, opt: OptLevel) -> String {
    format!("{arch:?}/{family:?}/{opt:?}")
}

/// A campaign's meaning, as stored in `refs/<workload>.ref`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Fingerprint of the input test set (seed-independent).
    pub set_fnv: u64,
    /// Source tests the campaign pulled.
    pub source_tests: usize,
    /// Work items (tests × applicable profiles).
    pub compiled_tests: usize,
    /// `arch/family/opt` → bin counts.
    pub cells: BTreeMap<String, [usize; 6]>,
    /// Sorted `(test, profile)` positive differences.
    pub positives: BTreeSet<(String, String)>,
}

impl Reference {
    /// The reference view of a campaign result.
    pub fn of(set_fnv: u64, r: &CampaignResult) -> Reference {
        let cells = r
            .cells
            .iter()
            .map(|((arch, family, opt), c)| {
                (
                    cell_key(*arch, *family, *opt),
                    [c.positive, c.negative, c.pass, c.crashed, c.racy, c.errors],
                )
            })
            .collect();
        Reference {
            set_fnv,
            source_tests: r.source_tests,
            compiled_tests: r.compiled_tests,
            cells,
            positives: r.positive_tests.iter().cloned().collect(),
        }
    }

    /// An empty reference over an input set, to fold items into.
    pub fn empty(set_fnv: u64) -> Reference {
        Reference {
            set_fnv,
            source_tests: 0,
            compiled_tests: 0,
            cells: BTreeMap::new(),
            positives: BTreeSet::new(),
        }
    }

    /// Folds one binned work item into its cell (and the positive list).
    pub fn add(
        &mut self,
        arch: Arch,
        family: CompilerFamily,
        opt: OptLevel,
        outcome: &ItemOutcome,
    ) {
        let bins = self.cells.entry(cell_key(arch, family, opt)).or_default();
        let bin = match outcome {
            ItemOutcome::Positive { test, profile } => {
                self.positives.insert((test.clone(), profile.clone()));
                0
            }
            ItemOutcome::Negative => 1,
            ItemOutcome::Pass => 2,
            ItemOutcome::Crashed => 3,
            ItemOutcome::Racy => 4,
            ItemOutcome::Error => ERRORS,
        };
        bins[bin] += 1;
        self.compiled_tests += 1;
    }

    /// Error cells: items the pipeline failed on (timeouts, budgets,
    /// unsupported constructs).
    pub fn errors(&self) -> usize {
        self.cells.values().map(|b| b[ERRORS]).sum()
    }

    /// The stored text form: one `key<TAB>value` line per fact.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(out, "set_fnv\t{:016x}", self.set_fnv).unwrap();
        writeln!(out, "source_tests\t{}", self.source_tests).unwrap();
        writeln!(out, "compiled_tests\t{}", self.compiled_tests).unwrap();
        writeln!(out, "bins\t{}", BINS.join("\t")).unwrap();
        for (key, bins) in &self.cells {
            let bins: Vec<String> = bins.iter().map(usize::to_string).collect();
            writeln!(out, "cell\t{key}\t{}", bins.join("\t")).unwrap();
        }
        for (test, profile) in &self.positives {
            writeln!(out, "positive\t{test}\t{profile}").unwrap();
        }
        out
    }

    /// Parses [`Reference::render`]'s output.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut r = Reference::empty(0);
        let num = |s: &str| s.parse::<usize>().map_err(|e| format!("`{s}`: {e}"));
        for line in text.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                ["set_fnv", v] => {
                    r.set_fnv = u64::from_str_radix(v, 16).map_err(|e| format!("`{v}`: {e}"))?;
                }
                ["source_tests", v] => r.source_tests = num(v)?,
                ["compiled_tests", v] => r.compiled_tests = num(v)?,
                ["bins", names @ ..] if names == BINS => {}
                ["cell", key, bins @ ..] if bins.len() == BINS.len() => {
                    let mut b = [0; 6];
                    for (slot, v) in b.iter_mut().zip(bins) {
                        *slot = num(v)?;
                    }
                    r.cells.insert((*key).to_string(), b);
                }
                ["positive", test, profile] => {
                    r.positives
                        .insert(((*test).to_string(), (*profile).to_string()));
                }
                _ => return Err(format!("malformed reference line `{line}`")),
            }
        }
        Ok(r)
    }

    /// Items of `got` whose verdict differs from this reference. Items
    /// that became error cells are *failures*, counted by the caller, not
    /// mismatches: a straggler that times out on a slow machine moves one item
    /// from its reference bin into `errors` and is reported as failed.
    ///
    /// Per cell, every non-error item out of place adds one to the bins it
    /// left and one to the bins it entered; an item that moved into
    /// `errors` adds one to each side too, so it is taken out as a pair.
    /// Positive entries `got` has that the reference lacks catch swaps
    /// inside a cell. A differing input set or count is a mismatch too.
    pub fn mismatches(&self, got: &Reference) -> usize {
        let keys: BTreeSet<&String> = self.cells.keys().chain(got.cells.keys()).collect();
        let cells: usize = keys
            .into_iter()
            .map(|key| {
                let want = self.cells.get(key).copied().unwrap_or_default();
                let have = got.cells.get(key).copied().unwrap_or_default();
                let moved: usize = (0..BINS.len()).map(|b| want[b].abs_diff(have[b])).sum();
                let new_errors = have[ERRORS].saturating_sub(want[ERRORS]);
                moved.saturating_sub(2 * new_errors) / 2
            })
            .sum();
        let new_positives = got.positives.difference(&self.positives).count();
        cells.max(new_positives)
            + self.source_tests.abs_diff(got.source_tests)
            + self.compiled_tests.abs_diff(got.compiled_tests)
            + usize::from(self.set_fnv != got.set_fnv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Reference {
        Reference {
            set_fnv: 0xabc,
            source_tests: 2,
            compiled_tests: 4,
            cells: [
                ("AArch64/Llvm/O1".to_string(), [1, 0, 1, 0, 0, 0]),
                ("AArch64/Llvm/O2".to_string(), [0, 1, 1, 0, 0, 0]),
            ]
            .into(),
            positives: [("T+a".to_string(), "clang-11-O1-AArch64".to_string())].into(),
        }
    }

    #[test]
    fn render_round_trips() {
        let r = sample();
        assert_eq!(Reference::parse(&r.render()), Ok(r));
        assert!(Reference::parse("cell\tx\t1").is_err());
    }

    #[test]
    fn counts_moved_items_but_not_new_errors() {
        let want = sample();
        assert_eq!(want.mismatches(&want), 0);

        // The positive item timed out: a failure, not a mismatch.
        let mut failed = want.clone();
        failed.cells.get_mut("AArch64/Llvm/O1").unwrap()[..].copy_from_slice(&[0, 0, 1, 0, 0, 1]);
        failed.positives.clear();
        assert_eq!(want.mismatches(&failed), 0);
        assert_eq!(failed.errors(), 1);

        // The negative item passed instead.
        let mut moved = want.clone();
        moved.cells.get_mut("AArch64/Llvm/O2").unwrap()[..].copy_from_slice(&[0, 0, 2, 0, 0, 0]);
        assert_eq!(want.mismatches(&moved), 1);

        // A swap inside one cell keeps the counts but not the list.
        let mut swapped = want.clone();
        swapped.positives = [("T+b".to_string(), "clang-11-O1-AArch64".to_string())].into();
        assert_eq!(want.mismatches(&swapped), 1);

        // A different input set is never the same campaign.
        let other = Reference {
            set_fnv: 1,
            ..want.clone()
        };
        assert_eq!(want.mismatches(&other), 1);
    }
}
