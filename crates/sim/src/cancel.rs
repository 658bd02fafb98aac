//! Cooperative cancellation for long-running block executions.
//!
//! A [`CancelToken`] is a tiny shared flag: a controller (the serving
//! watchdog, a test harness, a signal handler) clones it, installs the
//! clone on a backend
//! ([`ExecutionBackend::set_cancel_token`](crate::ExecutionBackend::set_cancel_token)),
//! and later calls [`CancelToken::cancel`]. The block loop both tiers share
//! polls the flag at every block boundary and on every cycle its fault walk
//! visits — stalled and wedged cycles included — and returns
//! [`SimCause::Cancelled`](crate::SimCause::Cancelled) at the next check
//! instead of finishing (or, for a wedged run, instead of never
//! finishing). The cycle-accurate machine itself never polls it.
//!
//! Cancellation is *cooperative and sticky*: once cancelled, a token stays
//! cancelled until [`CancelToken::reset`]; installing a fresh token per
//! batch (what the serving supervisor does) is the usual pattern.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag. Cloning is cheap (one `Arc` bump); all
/// clones observe the same flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raise the flag. Every holder of a clone observes it on its next
    /// check; raising an already-raised flag is a no-op.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the flag has been raised.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Lower the flag, re-arming the token for another run. Only
    /// meaningful when the controller knows no runner is mid-check.
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!t.is_cancelled() && !clone.is_cancelled());
        clone.cancel();
        assert!(t.is_cancelled() && clone.is_cancelled());
        t.reset();
        assert!(!clone.is_cancelled());
    }

    #[test]
    fn cancel_crosses_threads() {
        let t = CancelToken::new();
        let observer = t.clone();
        let h = std::thread::spawn(move || {
            while !observer.is_cancelled() {
                std::thread::yield_now();
            }
            true
        });
        t.cancel();
        assert!(h.join().unwrap());
    }
}
