//! Simulation configuration and results.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};
use telechat_common::{Error, OutcomeSet, Result};
use telechat_obs::Histogram;

/// Limits and switches for one simulation run.
///
/// The defaults mirror the paper's artefact: a 120-second timeout
/// (`TIMEOUT=120.0` in the Makefile), loop unroll factor 2, and exclusives
/// that always succeed (herd's `-speedcheck`-style fast path).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Backward-jump bound per label (loop unroll factor).
    pub unroll: usize,
    /// Fix-point rounds for the candidate-value pools.
    pub max_pool_iters: usize,
    /// Interpreter instruction-step budget (all threads, all forks).
    pub max_steps: u64,
    /// Candidate-execution budget (rf × co combinations examined).
    pub max_candidates: u64,
    /// Wall-clock limit for the whole simulation.
    pub timeout: Option<Duration>,
    /// Wall-clock deadline for one campaign *work item* (prepare, compile,
    /// extract and both simulation legs), counted from when the item
    /// starts. Cooperative, at [`SimConfig::timeout`]'s checkpoints (the
    /// enumerator's periodic tick, the start of each simulation) and the
    /// campaign driver's phase boundaries: an overrunning item becomes a
    /// typed `Error::Deadline` cell. Nothing is abandoned: a leg stalled
    /// *outside* the checkpoints holds its worker until it returns. `None`
    /// (the default) disables it. Excluded from the cache key
    /// (`sim_config_fingerprint`): an enforcement knob, not a semantic
    /// input — and a leg it cuts short is never cached.
    pub deadline: Option<Duration>,
    /// Explore store-exclusive failure paths (off = exclusives always
    /// succeed, the common litmus assumption).
    pub excl_fail_paths: bool,
    /// Keep allowed executions (for rendering figures); bounded by
    /// `max_kept`.
    pub keep_executions: bool,
    /// Maximum executions kept when `keep_executions` is set.
    pub max_kept: usize,
    /// Worker threads for candidate enumeration (trace combinations are
    /// sharded across workers; outcome sets are merged deterministically,
    /// so results do not depend on this value). `0` is treated as `1`.
    ///
    /// Campaign-level parallelism composes with this: `run_campaign`
    /// forces single-threaded simulation when the campaign itself runs
    /// multiple workers, so the two levels never oversubscribe.
    pub threads: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            unroll: 2,
            max_pool_iters: 4,
            max_steps: 4_000_000,
            max_candidates: 4_000_000,
            timeout: Some(Duration::from_secs(120)),
            deadline: None,
            excl_fail_paths: false,
            keep_executions: false,
            max_kept: 64,
            threads: 1,
        }
    }
}

impl SimConfig {
    /// A configuration with a short timeout, for large campaigns.
    pub fn fast() -> SimConfig {
        SimConfig {
            timeout: Some(Duration::from_secs(5)),
            max_steps: 400_000,
            max_candidates: 200_000,
            ..SimConfig::default()
        }
    }

    /// Keeps allowed executions for rendering.
    #[must_use]
    pub fn keeping_executions(mut self) -> SimConfig {
        self.keep_executions = true;
        self
    }

    /// Sets the wall-clock timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> SimConfig {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the enumeration worker-thread count (`0` is treated as `1`).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> SimConfig {
        self.threads = threads;
        self
    }

    /// A configuration using every available core for enumeration.
    #[must_use]
    pub fn parallel() -> SimConfig {
        SimConfig::default().with_threads(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }
}

/// A work item's [`SimConfig::deadline`], fixed when the item starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    /// When the item falls due.
    pub at: Instant,
    /// The configured limit.
    pub limit: Duration,
}

impl Deadline {
    /// The deadline `limit` from now.
    pub fn after(limit: Duration) -> Deadline {
        Deadline {
            at: Instant::now() + limit,
            limit,
        }
    }

    /// A checkpoint.
    ///
    /// # Errors
    ///
    /// [`Error::Deadline`] once the deadline has passed.
    pub fn check(&self) -> Result<()> {
        if Instant::now() < self.at {
            return Ok(());
        }
        Err(Error::Deadline {
            limit_ms: u64::try_from(self.limit.as_millis()).unwrap_or(u64::MAX),
        })
    }
}

/// The result of simulating a litmus test under a model.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Outcomes of all allowed executions (paper Def. II.2).
    pub outcomes: OutcomeSet,
    /// Number of candidate executions examined.
    pub candidates: u64,
    /// Number of allowed executions.
    pub allowed: u64,
    /// Flag checks that fired on at least one allowed execution
    /// (e.g. `race`, `const-write`).
    pub flags: BTreeSet<String>,
    /// True if an allowed execution wrote to a `const` (read-only) location
    /// — a runtime crash in the compiled program (paper bug [36]).
    pub crashed: bool,
    /// Allowed executions, when [`SimConfig::keep_executions`] was set.
    pub executions: Vec<crate::event::Execution>,
    /// Full (non-incremental) acyclicity traversals run during this
    /// simulation, summed over all worker threads. Zero whenever every
    /// model session answered from incremental per-edge state — the
    /// pinned property for the bundled interpreted models, at every
    /// thread count and under intra-combo work stealing.
    pub full_traversals: u64,
    /// Candidate executions accounted for by pruned subtrees (forced-
    /// choice and free-choice cutoffs in the coherence DFS) rather than
    /// visited leaves. Charge sums, so byte-identical across thread
    /// counts and task-splitting mode: `candidates` = leaves + this.
    pub pruned_candidates: u64,
    /// DFS shard tasks executed when intra-combo work stealing split the
    /// search (0 in plain per-combo mode). Scheduling-dependent — how the
    /// search is carved up, never what it finds — and therefore excluded
    /// from the persist codec: replayed results report 0.
    pub steal_tasks: u64,
    /// Leaf verdict attribution: for every candidate the model forbade,
    /// the first-violated rule name (a `.cat` constraint, or the built-in
    /// session's axiom tag) → how many leaves it killed. Charge tallies
    /// over the visited-leaf set, so byte-identical across thread counts
    /// and work-stealing mode.
    pub rule_leaves: BTreeMap<String, u64>,
    /// Mid-DFS prune attribution: pruned-candidate *charge* blamed on the
    /// rule the incremental session reported as first-violated when the
    /// subtree was cut (empty for models that prune without naming a
    /// rule). Charge sums, hence thread-invariant; sums to at most
    /// [`SimResult::pruned_candidates`].
    pub rule_prunes: BTreeMap<String, u64>,
    /// Which of the four enumeration prune sites (rf/co × incremental
    /// check / periodic recheck) accounted each pruned charge.
    pub prune_sites: PruneSites,
    /// Per-combo DFS size distribution: one sample per rf-combo, the
    /// candidate charge (leaves + pruned) accounted inside it. Merged
    /// elementwise, so byte-identical across thread counts.
    pub combo_candidates: Histogram,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// Pruned-candidate charge broken down by enumeration prune site: which
/// assignment layer (`rf` or `co`) cut the subtree, and whether the
/// incremental per-edge session said so immediately (`incremental`) or a
/// periodic full recheck caught it (`recheck`). Charge sums — the same
/// invariant as [`SimResult::pruned_candidates`] — so byte-identical
/// across thread counts and task-splitting mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneSites {
    /// Charge pruned at an rf assignment by the incremental session.
    pub rf_incremental: u64,
    /// Charge pruned at an rf assignment by a periodic full recheck.
    pub rf_recheck: u64,
    /// Charge pruned at a co assignment by the incremental session.
    pub co_incremental: u64,
    /// Charge pruned at a co assignment by a periodic full recheck.
    pub co_recheck: u64,
}

impl PruneSites {
    /// Folds `other` in (field-wise sum).
    pub fn merge(&mut self, other: &PruneSites) {
        self.rf_incremental += other.rf_incremental;
        self.rf_recheck += other.rf_recheck;
        self.co_incremental += other.co_incremental;
        self.co_recheck += other.co_recheck;
    }

    /// Total charge across all four sites.
    pub fn total(&self) -> u64 {
        self.rf_incremental + self.rf_recheck + self.co_incremental + self.co_recheck
    }

    /// `(site label, charge)` rows in fixed order, for metric sinks and
    /// codecs.
    pub fn rows(&self) -> [(&'static str, u64); 4] {
        [
            ("rf.incremental", self.rf_incremental),
            ("rf.recheck", self.rf_recheck),
            ("co.incremental", self.co_incremental),
            ("co.recheck", self.co_recheck),
        ]
    }
}

impl SimResult {
    /// True if any allowed execution fired the named flag.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.contains(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_artefact() {
        let c = SimConfig::default();
        assert_eq!(c.unroll, 2);
        assert_eq!(c.timeout, Some(Duration::from_secs(120)));
        assert!(!c.excl_fail_paths);
    }

    #[test]
    fn builders() {
        let c = SimConfig::fast()
            .keeping_executions()
            .with_timeout(Duration::from_millis(10));
        assert!(c.keep_executions);
        assert_eq!(c.timeout, Some(Duration::from_millis(10)));
    }
}
