//! Engine-level fault injection for failure-isolation tests.
//!
//! An [`EngineFaults`] handle is one campaign's plan of *armed* faults. It
//! travels from `CampaignSpec::faults` with each work item to the
//! simulation legs, which consult it at their compute entry points
//! ([`EngineFaults::fire`]), so a fault armed for one campaign never fires
//! in another. Production campaigns carry no handle.
//!
//! A matching fault can panic the leg (exercising gate poisoning and the
//! campaign's `catch_unwind` isolation) or stall it. A stall is a
//! cooperative checkpoint: it is cut short at the work item's deadline and
//! fails the leg with `Error::Deadline`, so no stall outlives its campaign.
//! Transient faults also record themselves when they fire; the campaign
//! driver consumes that record ([`EngineFaults::take_transient`]) to drive
//! its supervised retries. Production failures are never retried.

use crate::cache::lock_unpoisoned;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use telechat_common::Result;
use telechat_exec::Deadline;

/// Which simulation leg a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLeg {
    /// The source-program leg.
    Source,
    /// The compiled-program leg.
    Target,
}

/// What a firing fault does to the leg.
#[derive(Debug, Clone)]
pub enum FaultAction {
    /// Panic with an "injected fault" message.
    Panic,
    /// Sleep for the given duration before proceeding normally — or fail
    /// the leg with `Error::Deadline` at the work item's deadline.
    Stall(Duration),
    /// Stall as [`FaultAction::Stall`], then panic: other work items that
    /// need the same cached leg meanwhile find it in flight, so the panic
    /// poisons a gate with waiters on it.
    PanicAfter(Duration),
}

/// One armed fault.
#[derive(Debug, Clone)]
pub struct EngineFault {
    /// Leg to intercept.
    pub leg: FaultLeg,
    /// Fires only when the test's name contains this substring
    /// (empty matches everything).
    pub test_contains: String,
    /// Effect on the leg.
    pub action: FaultAction,
    /// How many times to fire before disarming.
    pub fires: u32,
    /// Transient faults are recorded when they fire so the campaign
    /// driver retries the work item ([`EngineFaults::take_transient`]).
    pub transient: bool,
}

/// A campaign's injected engine faults and its supervised-retry schedule
/// (see the module docs). Clones share one plan.
///
/// The default schedule — two attempts, zero backoff — retries a
/// transient failure once, immediately. Backoff grows exponentially
/// ([`EngineFaults::backoff_for`]) through an injectable sleeper, so tests
/// never wall-clock sleep. A work item still faulting transiently once its
/// attempts are exhausted escalates to `Error::RetriesExhausted`, a counted
/// error cell.
#[derive(Clone)]
pub struct EngineFaults {
    plan: Arc<Plan>,
    /// Total attempts per work item, retries included.
    pub(crate) max_attempts: u32,
    base_backoff: Duration,
    /// Takes the backoff pauses (none at the default zero backoff).
    sleeper: Arc<dyn Fn(Duration) + Send + Sync>,
}

#[derive(Default)]
struct Plan {
    armed: Mutex<Vec<EngineFault>>,
    /// Test names of the transient faults that fired and were not yet
    /// consumed by a retry.
    transient: Mutex<Vec<String>>,
    /// Stalls sleeping right now.
    sleeping: AtomicUsize,
}

impl EngineFaults {
    /// A plan with nothing armed and the default retry schedule.
    pub fn new() -> EngineFaults {
        EngineFaults {
            plan: Arc::default(),
            max_attempts: 2,
            base_backoff: Duration::ZERO,
            sleeper: Arc::new(|_| {}),
        }
    }

    /// Arms a fault.
    pub fn arm(&self, fault: EngineFault) {
        lock_unpoisoned(&self.plan.armed).push(fault);
    }

    /// The same plan with another retry schedule: `max_attempts` per work
    /// item (the initial run plus retries; at least 1, meaning "never
    /// retry"), and `base_backoff` before the first retry, doubling per
    /// subsequent retry, each pause taken by `sleeper` (`std::thread::sleep`,
    /// or a recording clock in tests).
    #[must_use]
    pub fn with_retries(
        mut self,
        max_attempts: u32,
        base_backoff: Duration,
        sleeper: impl Fn(Duration) + Send + Sync + 'static,
    ) -> EngineFaults {
        self.max_attempts = max_attempts.max(1);
        self.base_backoff = base_backoff;
        self.sleeper = Arc::new(sleeper);
        self
    }

    /// The backoff before retry number `retry` (1-based): exponential,
    /// `base · 2^(retry-1)`, saturating.
    pub fn backoff_for(&self, retry: u32) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        self.base_backoff.saturating_mul(
            1u32.checked_shl(retry.saturating_sub(1))
                .unwrap_or(u32::MAX),
        )
    }

    /// Pauses before retry number `retry` (1-based), through the sleeper.
    pub(crate) fn pause(&self, retry: u32) {
        let d = self.backoff_for(retry);
        if !d.is_zero() {
            (self.sleeper)(d);
        }
    }

    /// The simulation legs' check-in point, at the top of every leg compute
    /// (cached or not). A matching armed fault fires — panicking or
    /// stalling this thread — and burns one of its remaining firings.
    ///
    /// # Errors
    ///
    /// `Error::Deadline` when a stall is cut short by `deadline`.
    pub fn fire(&self, leg: FaultLeg, test_name: &str, deadline: Option<Deadline>) -> Result<()> {
        let fault = {
            let mut armed = lock_unpoisoned(&self.plan.armed);
            let Some(i) = armed
                .iter()
                .position(|f| f.leg == leg && f.fires > 0 && test_name.contains(&f.test_contains))
            else {
                return Ok(());
            };
            armed[i].fires -= 1;
            if armed[i].fires == 0 {
                armed.remove(i)
            } else {
                armed[i].clone()
            }
        };
        if fault.transient {
            // Record before acting: a stall cut short by the deadline
            // returns an error the campaign driver must still recognise
            // as transient.
            lock_unpoisoned(&self.plan.transient).push(test_name.to_string());
        }
        telechat_obs::add(telechat_obs::Counter::FaultFirings, 1);
        let (stall, panics) = match fault.action {
            FaultAction::Panic => (Duration::ZERO, true),
            FaultAction::Stall(d) => (d, false),
            FaultAction::PanicAfter(d) => (d, true),
        };
        self.stall(stall, deadline)?;
        if panics {
            panic!("injected {leg:?}-leg fault on `{test_name}`");
        }
        Ok(())
    }

    /// Sleeps for `stall`, cut short at `deadline` as `Error::Deadline`.
    fn stall(&self, stall: Duration, deadline: Option<Deadline>) -> Result<()> {
        if stall.is_zero() {
            return Ok(());
        }
        let until = Instant::now() + stall;
        let cut = deadline.filter(|d| d.at < until);
        let wake = cut.map_or(until, |d| d.at);
        self.plan.sleeping.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(wake.saturating_duration_since(Instant::now()));
        self.plan.sleeping.fetch_sub(1, Ordering::SeqCst);
        cut.map_or(Ok(()), |d| d.check())
    }

    /// How many injected stalls are sleeping right now.
    pub fn sleeping(&self) -> usize {
        self.plan.sleeping.load(Ordering::SeqCst)
    }

    /// Consumes the transient-fault record for a work item, if one fired.
    /// The campaign driver calls this after a faulted work item
    /// (`Error::is_fault`) and retries when it returns true. The firing
    /// leg may have seen a *derived* test name (the target leg prefixes
    /// the compiler profile), so matching is by containment either way.
    pub fn take_transient(&self, test_name: &str) -> bool {
        let mut fired = lock_unpoisoned(&self.plan.transient);
        let Some(i) = fired
            .iter()
            .position(|n| n.contains(test_name) || test_name.contains(n.as_str()))
        else {
            return false;
        };
        fired.remove(i);
        true
    }
}

impl Default for EngineFaults {
    fn default() -> EngineFaults {
        EngineFaults::new()
    }
}

impl fmt::Debug for EngineFaults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineFaults").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telechat_common::Error;

    fn fault(leg: FaultLeg, action: FaultAction) -> EngineFault {
        EngineFault {
            leg,
            test_contains: "SB".into(),
            action,
            fires: 1,
            transient: true,
        }
    }

    #[test]
    fn fire_is_inert_when_nothing_is_armed() {
        let faults = EngineFaults::new();
        assert_eq!(faults.fire(FaultLeg::Source, "SB", None), Ok(()));
        assert!(!faults.take_transient("SB"));
    }

    #[test]
    fn armed_panic_fires_once_and_disarms() {
        let faults = EngineFaults::new();
        faults.arm(fault(FaultLeg::Source, FaultAction::Panic));
        // Wrong leg and wrong name do not fire.
        assert_eq!(faults.fire(FaultLeg::Target, "SB", None), Ok(()));
        assert_eq!(faults.fire(FaultLeg::Source, "MP", None), Ok(()));
        // A clone shares the plan: the fault fires through it.
        let clone = faults.clone();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            clone.fire(FaultLeg::Source, "SB", None)
        }));
        assert!(caught.is_err());
        // Burned out: firing again is inert.
        assert_eq!(faults.fire(FaultLeg::Source, "SB", None), Ok(()));
        // The transient marker is consumable exactly once.
        assert!(faults.take_transient("SB"));
        assert!(!faults.take_transient("SB"));
        // Another plan never saw any of it.
        assert!(!EngineFaults::new().take_transient("SB"));
    }

    #[test]
    fn backoff_schedule_is_exponential_and_injectable() {
        let sleeps = Arc::new(Mutex::new(Vec::new()));
        let rec = sleeps.clone();
        let faults = EngineFaults::new().with_retries(4, Duration::from_millis(10), move |d| {
            rec.lock().unwrap().push(d)
        });
        assert_eq!(faults.backoff_for(1), Duration::from_millis(10));
        assert_eq!(faults.backoff_for(2), Duration::from_millis(20));
        assert_eq!(faults.backoff_for(3), Duration::from_millis(40));
        faults.pause(1);
        faults.pause(2);
        assert_eq!(
            *sleeps.lock().unwrap(),
            vec![Duration::from_millis(10), Duration::from_millis(20)]
        );
        // The default schedule never sleeps at all.
        assert_eq!(EngineFaults::new().backoff_for(3), Duration::ZERO);
        assert_eq!(EngineFaults::new().max_attempts, 2);
    }

    #[test]
    fn transient_matching_is_bidirectional() {
        let faults = EngineFaults::new();
        faults.arm(fault(
            FaultLeg::Target,
            FaultAction::Stall(Duration::from_millis(1)),
        ));
        // The target leg sees the profile-prefixed derived name…
        assert_eq!(
            faults.fire(FaultLeg::Target, "clang-11-O2-AArch64.SB", None),
            Ok(())
        );
        // …while the campaign retries under the source name.
        assert!(faults.take_transient("SB"));
    }

    #[test]
    fn a_stall_is_cut_short_at_the_deadline() {
        let faults = EngineFaults::new();
        faults.arm(fault(
            FaultLeg::Target,
            FaultAction::Stall(Duration::from_secs(5)),
        ));
        let deadline = Deadline::after(Duration::from_millis(20));
        let started = Instant::now();
        assert_eq!(
            faults.fire(FaultLeg::Target, "SB", Some(deadline)),
            Err(Error::Deadline { limit_ms: 20 })
        );
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(faults.sleeping(), 0, "no stall outlives its deadline");
        // The cut stall still counts as a transient firing.
        assert!(faults.take_transient("SB"));
    }
}
