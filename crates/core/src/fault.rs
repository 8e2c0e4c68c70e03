//! Engine-level fault injection for failure-isolation tests.
//!
//! A tiny global registry of *armed* faults that the simulation legs
//! consult at their compute entry points ([`fire`]): a matching fault can
//! panic the leg (exercising the cache's gate-poisoning and the campaign's
//! `catch_unwind` isolation) or stall it (exercising the wall-clock
//! deadline watchdog). The registry is empty in production — [`fire`] is a
//! single relaxed atomic load on the hot path — and is only populated by
//! tests via [`arm`].
//!
//! Transient faults additionally record themselves when they fire, and the
//! campaign driver consumes that record ([`take_transient`]) to drive its
//! supervised retries ([`RetryPolicy`]): production failures stay
//! deterministic (no blind retries), while injected-transient faults prove
//! the retry, backoff and escalation paths.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The campaign's supervised-execution policy: how many attempts a
/// work item whose failures are provably *transient* ([`take_transient`])
/// gets, and how long to back off between them.
///
/// The default — two attempts, zero backoff — is the historical "retry
/// once, immediately" behaviour. Backoff grows exponentially
/// ([`RetryPolicy::backoff_for`]: `base`, `2·base`, `4·base`, …) and is
/// delivered through an injectable sleeper, so tests drive a recording
/// clock and never wall-clock sleep. A work item still faulting with a
/// transient marker once its attempts are exhausted escalates to the typed
/// permanent failure `Error::RetriesExhausted` — a counted error cell,
/// never a wedged or failed campaign.
#[derive(Clone)]
pub struct RetryPolicy {
    /// Total attempts per work item (the initial run plus retries); the
    /// minimum of 1 means "never retry".
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    /// `Duration::ZERO` (the default) never sleeps.
    pub base_backoff: Duration,
    /// Delivers each backoff pause. Defaults to `std::thread::sleep`.
    sleeper: Arc<dyn Fn(Duration) + Send + Sync>,
}

impl RetryPolicy {
    /// A policy sleeping on the wall clock.
    pub fn new(max_attempts: u32, base_backoff: Duration) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff,
            sleeper: Arc::new(std::thread::sleep),
        }
    }

    /// The same policy with an injected sleeper — tests record the pauses
    /// instead of taking them.
    pub fn with_sleeper(
        mut self,
        sleeper: impl Fn(Duration) + Send + Sync + 'static,
    ) -> RetryPolicy {
        self.sleeper = Arc::new(sleeper);
        self
    }

    /// The backoff before retry number `retry` (1-based): exponential,
    /// `base · 2^(retry-1)`, saturating.
    pub fn backoff_for(&self, retry: u32) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        self.base_backoff
            .saturating_mul(1u32.checked_shl(retry.saturating_sub(1)).unwrap_or(u32::MAX))
    }

    /// Pauses before retry number `retry` (1-based), through the sleeper.
    pub(crate) fn pause(&self, retry: u32) {
        let d = self.backoff_for(retry);
        if !d.is_zero() {
            (self.sleeper)(d);
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::new(2, Duration::ZERO)
    }
}

impl fmt::Debug for RetryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RetryPolicy")
            .field("max_attempts", &self.max_attempts)
            .field("base_backoff", &self.base_backoff)
            .finish()
    }
}

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
    /// Sleep for the given duration before proceeding normally.
    Stall(Duration),
    /// Sleep for the given duration, then panic: other work items that
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
    /// driver retries the work item once ([`take_transient`]).
    pub transient: bool,
}

static ANY_ARMED: AtomicBool = AtomicBool::new(false);
static ARMED: Mutex<Vec<EngineFault>> = Mutex::new(Vec::new());
static TRANSIENT_FIRED: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Arms a fault. Test-only in spirit; does nothing harmful if unused.
pub fn arm(fault: EngineFault) {
    ARMED.lock().unwrap_or_else(|e| e.into_inner()).push(fault);
    ANY_ARMED.store(true, Ordering::Release);
}

/// Disarms every fault and clears the transient record. Tests call this
/// in a drop guard so a failing assertion cannot leak faults into the
/// next test.
pub fn disarm_all() {
    ARMED.lock().unwrap_or_else(|e| e.into_inner()).clear();
    TRANSIENT_FIRED
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
    ANY_ARMED.store(false, Ordering::Release);
}

/// The simulation legs' check-in point: called with the leg kind and the
/// test's name at the top of every leg compute (cached or not). A matching
/// armed fault fires — panicking or stalling this thread — and burns one
/// of its remaining firings.
pub fn fire(leg: FaultLeg, test_name: &str) {
    if !ANY_ARMED.load(Ordering::Acquire) {
        return;
    }
    let action = {
        let mut armed = ARMED.lock().unwrap_or_else(|e| e.into_inner());
        let Some(i) = armed
            .iter()
            .position(|f| f.leg == leg && f.fires > 0 && test_name.contains(&f.test_contains))
        else {
            return;
        };
        armed[i].fires -= 1;
        let fault = armed[i].clone();
        if armed[i].fires == 0 {
            armed.remove(i);
            if armed.is_empty() {
                ANY_ARMED.store(false, Ordering::Release);
            }
        }
        if fault.transient {
            // Record before acting: a stalled leg may be abandoned by the
            // deadline watchdog mid-sleep, and the campaign driver must
            // still see the transient marker when it classifies the error.
            TRANSIENT_FIRED
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(test_name.to_string());
        }
        fault.action
    };
    telechat_obs::add(telechat_obs::Counter::FaultFirings, 1);
    match action {
        FaultAction::Panic => panic!("injected {leg:?}-leg fault on `{test_name}`"),
        FaultAction::Stall(d) => std::thread::sleep(d),
        FaultAction::PanicAfter(d) => {
            std::thread::sleep(d);
            panic!("injected {leg:?}-leg fault on `{test_name}`")
        }
    }
}

/// Consumes the transient-fault record for a work item, if one fired.
/// The campaign driver calls this after a faulted work item
/// (`Error::is_fault`) and retries under its [`RetryPolicy`] when it
/// returns true. The firing leg may have seen a *derived* test name (the
/// target leg prefixes the compiler profile), so matching is by
/// containment either way.
pub fn take_transient(test_name: &str) -> bool {
    let mut fired = TRANSIENT_FIRED.lock().unwrap_or_else(|e| e.into_inner());
    let Some(i) = fired
        .iter()
        .position(|n| n.contains(test_name) || test_name.contains(n.as_str()))
    else {
        return false;
    };
    fired.remove(i);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so these tests serialise themselves.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn fire_is_inert_when_nothing_is_armed() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        fire(FaultLeg::Source, "SB"); // must not panic
    }

    #[test]
    fn armed_panic_fires_once_and_disarms() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        arm(EngineFault {
            leg: FaultLeg::Source,
            test_contains: "SB".into(),
            action: FaultAction::Panic,
            fires: 1,
            transient: true,
        });
        // Wrong leg and wrong name do not fire.
        fire(FaultLeg::Target, "SB");
        fire(FaultLeg::Source, "MP");
        let caught = std::panic::catch_unwind(|| fire(FaultLeg::Source, "SB"));
        assert!(caught.is_err());
        // Burned out: firing again is inert.
        fire(FaultLeg::Source, "SB");
        // The transient marker is consumable exactly once.
        assert!(take_transient("SB"));
        assert!(!take_transient("SB"));
        disarm_all();
    }

    #[test]
    fn backoff_schedule_is_exponential_and_injectable() {
        let sleeps = Arc::new(Mutex::new(Vec::new()));
        let rec = sleeps.clone();
        let policy = RetryPolicy::new(4, Duration::from_millis(10))
            .with_sleeper(move |d| rec.lock().unwrap().push(d));
        assert_eq!(policy.backoff_for(1), Duration::from_millis(10));
        assert_eq!(policy.backoff_for(2), Duration::from_millis(20));
        assert_eq!(policy.backoff_for(3), Duration::from_millis(40));
        policy.pause(1);
        policy.pause(2);
        assert_eq!(
            *sleeps.lock().unwrap(),
            vec![Duration::from_millis(10), Duration::from_millis(20)]
        );
        // The default policy never sleeps at all.
        assert_eq!(RetryPolicy::default().backoff_for(3), Duration::ZERO);
        assert_eq!(RetryPolicy::default().max_attempts, 2);
    }

    #[test]
    fn transient_matching_is_bidirectional() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        arm(EngineFault {
            leg: FaultLeg::Target,
            test_contains: "SB".into(),
            action: FaultAction::Stall(Duration::from_millis(1)),
            fires: 1,
            transient: true,
        });
        // The target leg sees the profile-prefixed derived name…
        fire(FaultLeg::Target, "clang-11-O2-AArch64.SB");
        // …while the campaign retries under the source name.
        assert!(take_transient("SB"));
        disarm_all();
    }
}
