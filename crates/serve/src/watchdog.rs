//! The watchdog: wall-clock liveness enforcement for gray-failed fault
//! domains.
//!
//! A crashed shard is loud — the supervisor catches the panic. A *gray*
//! failure is quiet: the simulated machine wedges or crawls, the run never
//! returns, and its tickets would wait forever. The watchdog closes that
//! gap. Before each simulator run the worker arms its slot
//! ([`Watchdog::arm`]) with a wall deadline — `predicted compute cycles ×
//! calibrated ns-per-cycle ×`
//! [`watchdog_slack`](crate::ServeConfig::watchdog_slack), floored at
//! [`WATCHDOG_FLOOR`] — and gets back the run's [`CancelToken`]. One
//! watchdog thread per [`Server`](crate::Server) or
//! [`Pipeline`](crate::Pipeline) (a slot per worker shard or stage) sleeps
//! until the nearest armed deadline; a run still armed past its deadline
//! gets its token cancelled, which the run notices at its next block
//! boundary or wedged cycle and returns
//! [`SimCause::Cancelled`](npcgra_sim::SimCause) — a typed, retryable error
//! the normal retry ladder knows how to route.
//!
//! The wall deadline only arms once the ns-per-cycle estimate
//! ([`NsPerCycle`](crate::stats::NsPerCycle)) has calibrated on healthy
//! runs, so a cold server never preempts on noise; until then the
//! deterministic [`cycle_budget`](crate::ServeConfig::cycle_budget) is the
//! backstop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use npcgra_sim::CancelToken;

/// The wall-deadline floor: below this, host scheduling noise (a
/// descheduled core, a page fault, the box's other tenants) would
/// masquerade as a gray failure. 25 ms dominates OS jitter on a loaded
/// host while a true wedge — pacing one simulated cycle per 100 µs — still
/// overshoots it within a few hundred wedge cycles.
const WATCHDOG_FLOOR: Duration = Duration::from_millis(25);

/// One armed run: when to fire, and whose run to cancel.
struct Armed {
    deadline: Instant,
    token: CancelToken,
}

/// One arming slot per fault domain (a domain runs at most one thing at a
/// time), a bell to wake the watchdog thread when a nearer deadline is
/// armed, a shutdown latch, and the thread itself once [`spawn`](Self::spawn)ed.
pub(crate) struct Watchdog {
    slots: Mutex<Vec<Option<Armed>>>,
    bell: Condvar,
    stop: AtomicBool,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Watchdog {
    pub(crate) fn new(slots: usize) -> Arc<Self> {
        Arc::new(Watchdog {
            slots: Mutex::new((0..slots).map(|_| None).collect()),
            bell: Condvar::new(),
            stop: AtomicBool::new(false),
            thread: Mutex::new(None),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Option<Armed>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Start the watchdog thread — only when `slack` arms the wall
    /// deadline at all and there is a slot to watch. `on_fire(slot)` runs
    /// on that thread for every run it cancels.
    pub(crate) fn spawn(self: &Arc<Self>, name: &str, slack: f64, on_fire: impl Fn(usize) + Send + 'static) {
        if slack > 0.0 && !self.lock().is_empty() {
            let this = Arc::clone(self);
            let handle = std::thread::Builder::new()
                .name(name.to_string())
                .spawn(move || this.run(on_fire))
                .expect("spawn watchdog");
            *self.thread.lock().unwrap_or_else(PoisonError::into_inner) = Some(handle);
        }
    }

    /// Arm `slot` for a run predicted to cost `predicted` cycles and
    /// return the token to install on its backend: the run is cancelled if
    /// still armed after `predicted × ns × slack` of wall time (at least
    /// [`WATCHDOG_FLOOR`]), replacing any earlier arming of the slot. `None`
    /// — nothing armed — while `slack` is off, nothing is predicted or `ns`
    /// has not calibrated.
    pub(crate) fn arm(&self, slot: usize, predicted: u64, ns: Option<f64>, slack: f64) -> Option<CancelToken> {
        let ns = ns.filter(|_| slack > 0.0 && predicted > 0)?;
        let wall = Duration::from_nanos((predicted as f64 * ns * slack) as u64).max(WATCHDOG_FLOOR);
        let token = CancelToken::new();
        self.lock()[slot] = Some(Armed {
            deadline: Instant::now() + wall,
            token: token.clone(),
        });
        // The thread may be parked on a farther (or no) deadline.
        self.bell.notify_all();
        Some(token)
    }

    /// Disarm `slot` — the run returned (either way) in time.
    pub(crate) fn disarm(&self, slot: usize) {
        self.lock()[slot] = None;
    }

    /// Stop and join the watchdog thread (idempotent). Call once the
    /// workers are joined, so nothing can re-arm and a wedged final run
    /// stays preemptible until then.
    pub(crate) fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.bell.notify_all();
        if let Some(handle) = self.thread.lock().unwrap_or_else(PoisonError::into_inner).take() {
            let _ = handle.join();
        }
    }

    /// The watchdog thread body: sleep until the nearest armed deadline
    /// (or the bell), cancel every run past its deadline, repeat.
    /// Preemption *counting* happens where the cancelled run surfaces —
    /// this thread only fires tokens and invokes `on_fire(slot)` for any
    /// bookkeeping its owner keeps per firing (the pipeline counts the
    /// stuck stage; the server keeps none).
    fn run(&self, on_fire: impl Fn(usize)) {
        let mut slots = self.lock();
        loop {
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            let now = Instant::now();
            for (worker, slot) in slots.iter_mut().enumerate() {
                if slot.as_ref().is_some_and(|armed| armed.deadline <= now) {
                    let armed = slot.take().expect("checked above");
                    armed.token.cancel();
                    on_fire(worker);
                }
            }
            let nearest = slots.iter().flatten().map(|armed| armed.deadline).min();
            slots = match nearest {
                Some(deadline) => {
                    let wait = deadline.saturating_duration_since(Instant::now());
                    self.bell.wait_timeout(slots, wait).unwrap_or_else(PoisonError::into_inner).0
                }
                // Nothing armed: park until an arm or shutdown rings the bell.
                None => self.bell.wait(slots).unwrap_or_else(PoisonError::into_inner),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn expired_arming_cancels_the_token_and_reports_the_slot() {
        let wd = Watchdog::new(2);
        let fires: Arc<Vec<AtomicU64>> = Arc::new((0..2).map(|_| AtomicU64::new(0)).collect());
        let seen = Arc::clone(&fires);
        wd.spawn("watchdog-test", 1.0, move |slot| {
            seen[slot].fetch_add(1, Ordering::Relaxed);
        });
        // The rule's three "do not arm" inputs: slack off, nothing
        // predicted, not calibrated.
        assert!(wd.arm(0, 1000, Some(2.0), 0.0).is_none());
        assert!(wd.arm(0, 0, Some(2.0), 1.0).is_none());
        assert!(wd.arm(0, 1000, None, 1.0).is_none());
        // 1000 cycles × 2 ns × 1.0 is far under the floor: the floor rules.
        let armed = Instant::now();
        let token = wd.arm(0, 1000, Some(2.0), 1.0).expect("calibrated and slack on");
        while !token.is_cancelled() {
            assert!(armed.elapsed() < Duration::from_secs(5), "watchdog never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(armed.elapsed() >= WATCHDOG_FLOOR, "fired inside the floor");
        assert_eq!(fires[0].load(Ordering::Relaxed), 1, "the preempted slot is reported");
        assert_eq!(fires[1].load(Ordering::Relaxed), 0, "the other slot is untouched");
        wd.shutdown();
        wd.shutdown();
    }

    #[test]
    fn disarmed_runs_are_never_cancelled() {
        let wd = Watchdog::new(1);
        let fires = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&fires);
        wd.spawn("watchdog-test", 1.0, move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        let token = wd.arm(0, 1000, Some(2.0), 1.0).expect("armed at the floor");
        wd.disarm(0);
        std::thread::sleep(WATCHDOG_FLOOR * 2);
        assert!(!token.is_cancelled(), "the run completed and disarmed in time");
        assert_eq!(fires.load(Ordering::Relaxed), 0);
        wd.shutdown();
    }
}
