//! Outcome-set comparison (paper Fig. 5, step 5: `mcompare`).
//!
//! Checks `outcomes_C ⊆ outcomes_S` modulo the state mapping and reports:
//!
//! * **positive differences** (`+ve`): compiled outcomes missing from the
//!   source set — candidate bugs;
//! * **negative differences** (`-ve`): source outcomes the compiled test
//!   can no longer produce — legal strengthening by optimisations or the
//!   target architecture.

use crate::mapping::StateMapping;
use std::collections::BTreeSet;
use std::sync::Arc;
use telechat_common::{fnv1a64, OutcomeSet, StateKey};

/// The profile-invariant half of a comparison: the keys the source
/// outcomes observe, and the source set restricted to them. Computing this
/// depends only on the source simulation, so the campaign cache shares one
/// instance (cheap `Arc` clones) across every profile's `mcompare` of the
/// same test instead of re-restricting the set ~50 times.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceObservables {
    /// Union of the keys the source outcomes mention — the comparison is
    /// restricted to these on both sides.
    pub keys: Arc<BTreeSet<StateKey>>,
    /// The source outcomes restricted to `keys`.
    pub outcomes: Arc<OutcomeSet>,
    /// FNV-1a fingerprint of the rendered `outcomes`: the identity the
    /// campaign's `coverage.source_outcome_sets` row counts distinct
    /// values of, computed once per source leg rather than per work item.
    pub fingerprint: u64,
}

impl SourceObservables {
    /// Restricts `source_outcomes` to its own observable keys.
    pub fn of(source_outcomes: &OutcomeSet) -> SourceObservables {
        let keys: BTreeSet<StateKey> = source_outcomes.iter().flat_map(|o| o.keys()).collect();
        let outcomes = source_outcomes.restrict(&keys);
        SourceObservables {
            keys: Arc::new(keys),
            fingerprint: fnv1a64(0, outcomes.to_string().as_bytes()),
            outcomes: Arc::new(outcomes),
        }
    }
}

/// The result of comparing source and compiled outcome sets.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Compiled outcomes (renamed to source observables) not in the source
    /// set: `outcomes_C \ outcomes_S`.
    pub positive: OutcomeSet,
    /// Source outcomes the compiled test never produces:
    /// `outcomes_S \ outcomes_C`.
    pub negative: OutcomeSet,
    /// The source outcomes, restricted to the compared keys — shared (not
    /// deep-copied) with the cached source leg when one exists.
    pub source: Arc<OutcomeSet>,
    /// The compiled outcomes after renaming and restriction.
    pub target: OutcomeSet,
}

impl Comparison {
    /// No positive differences (the compiled program is correct w.r.t. the
    /// source model, paper eq. 1)?
    pub fn is_ok(&self) -> bool {
        self.positive.is_empty()
    }

    /// Strictly fewer behaviours (a pure strengthening)?
    pub fn is_negative(&self) -> bool {
        self.positive.is_empty() && !self.negative.is_empty()
    }
}

/// Compares outcome sets modulo a state mapping.
///
/// Both sets are restricted to the source-side observables the mapping
/// knows about (plus shared locations), so incidental extra observables on
/// either side cannot manufacture differences.
pub fn mcompare(
    source_outcomes: &OutcomeSet,
    target_outcomes: &OutcomeSet,
    mapping: &StateMapping,
) -> Comparison {
    mcompare_shared(
        &SourceObservables::of(source_outcomes),
        target_outcomes,
        mapping,
    )
}

/// [`mcompare`] with the profile-invariant source half precomputed (and
/// typically cache-shared across profiles): only the target-side renaming,
/// restriction and set differences run per call.
pub fn mcompare_shared(
    source: &SourceObservables,
    target_outcomes: &OutcomeSet,
    mapping: &StateMapping,
) -> Comparison {
    let renamed = mapping.rename_target_outcomes(target_outcomes);
    let target = renamed.restrict(&source.keys);
    Comparison {
        positive: target.difference(&source.outcomes),
        negative: source.outcomes.difference(&target),
        source: source.outcomes.clone(),
        target,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telechat_common::{Outcome, ThreadId, Val};

    fn outs(vals: &[i64]) -> OutcomeSet {
        vals.iter()
            .map(|v| {
                let mut o = Outcome::new();
                o.set(StateKey::reg(ThreadId(0), "r0"), Val::Int(*v));
                o
            })
            .collect()
    }

    #[test]
    fn equal_sets_are_ok() {
        let c = mcompare(&outs(&[0, 1]), &outs(&[0, 1]), &StateMapping::default());
        assert!(c.is_ok());
        assert!(!c.is_negative());
    }

    #[test]
    fn extra_compiled_outcome_is_positive() {
        let c = mcompare(&outs(&[0, 1]), &outs(&[0, 1, 2]), &StateMapping::default());
        assert!(!c.is_ok());
        assert_eq!(c.positive.len(), 1);
    }

    #[test]
    fn missing_compiled_outcome_is_negative() {
        let c = mcompare(&outs(&[0, 1]), &outs(&[0]), &StateMapping::default());
        assert!(c.is_ok());
        assert!(c.is_negative());
        assert_eq!(c.negative.len(), 1);
    }

    #[test]
    fn mapping_renames_before_compare() {
        let mut m = StateMapping::default();
        m.insert(
            StateKey::reg(ThreadId(0), "r0"),
            StateKey::loc("P0_r0"),
        );
        let mut target = OutcomeSet::new();
        let mut o = Outcome::new();
        o.set(StateKey::loc("P0_r0"), Val::Int(1));
        target.insert(o);
        let c = mcompare(&outs(&[0, 1]), &target, &m);
        assert!(c.is_ok(), "renamed outcome matches source outcome 1");
    }
}
