//! Overload control: priority classes, CoDel-style adaptive admission, the
//! staged brownout ladder and weighted-fair dequeue.
//!
//! Everything in this module is a *pure state machine*: no threads, no
//! `Instant::now()` of its own — callers feed in the clock, so every
//! transition is unit-testable deterministically. The server keeps the
//! [`OverloadController`] and [`WfqScheduler`] inside its queue mutex (one
//! consistent view for admission and batch formation).
//!
//! Admission follows **CoDel** (Nichols & Jacobson): track the *minimum* queue
//! sojourn time over a sliding window. A small minimum means the queue
//! drains — standing bursts are fine; a minimum persistently above the
//! delay target means every request is waiting too long, i.e. true
//! overload, and admitting more work only manufactures deadline misses.
//! Sustained overload climbs the [`BrownoutLevel`] ladder one rung per
//! window; recovery descends one rung per quiet window.
//!
//! A batch runs on one shard only: a layer's latency is a closed form of
//! its mapping (the paper's §5), so a served batch has no random straggler
//! worth racing on a second shard. A slow batch is a gray fault, and the
//! watchdog and cycle budget preempt it ([`crate::watchdog`]).

use std::time::{Duration, Instant};

/// Request priority class, highest first. Admission, shedding and dequeue
/// order all honor it: `Interactive` is served first and shed last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive traffic (a user is waiting). Served first, shed
    /// only when the server is fully draining.
    Interactive,
    /// Throughput traffic with loose deadlines. Weighted below interactive
    /// at dequeue; shed only at the top of the brownout ladder.
    Batch,
    /// Scavenger traffic. First to be shed — at the ladder's first rung.
    BestEffort,
}

/// Number of priority classes.
pub const CLASSES: usize = 3;

impl Priority {
    /// All classes, highest priority first.
    pub const ALL: [Priority; CLASSES] = [Priority::Interactive, Priority::Batch, Priority::BestEffort];

    /// Dense index: `Interactive` = 0 … `BestEffort` = 2.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
            Priority::BestEffort => 2,
        }
    }

    /// The class at a dense index (panics past [`CLASSES`]).
    #[must_use]
    pub fn from_index(i: usize) -> Priority {
        Priority::ALL[i]
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Priority::Interactive => write!(f, "interactive"),
            Priority::Batch => write!(f, "batch"),
            Priority::BestEffort => write!(f, "best-effort"),
        }
    }
}

/// The staged brownout ladder — each rung sheds more aggressively than the
/// one below, replacing a binary healthy/degraded switch. Rung ordering is
/// meaningful: the controller escalates one rung per overloaded window and
/// de-escalates one rung per quiet window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BrownoutLevel {
    /// No overload: admit everything.
    Normal,
    /// Shed [`Priority::BestEffort`] at admission.
    ShedBestEffort,
    /// Additionally halve the batch size cap, trading batching efficiency
    /// for queue-drain latency.
    CapBatch,
    /// Additionally reject requests whose model's program is not already
    /// compiled into the cache (no compile-on-the-critical-path work).
    RejectUncached,
    /// Admit nothing until the queue drains back below the delay target.
    Drain,
}

impl BrownoutLevel {
    /// Every rung, bottom to top.
    pub const ALL: [BrownoutLevel; 5] = [
        BrownoutLevel::Normal,
        BrownoutLevel::ShedBestEffort,
        BrownoutLevel::CapBatch,
        BrownoutLevel::RejectUncached,
        BrownoutLevel::Drain,
    ];

    fn from_step(step: usize) -> BrownoutLevel {
        BrownoutLevel::ALL[step.min(BrownoutLevel::ALL.len() - 1)]
    }

    fn step(self) -> usize {
        match self {
            BrownoutLevel::Normal => 0,
            BrownoutLevel::ShedBestEffort => 1,
            BrownoutLevel::CapBatch => 2,
            BrownoutLevel::RejectUncached => 3,
            BrownoutLevel::Drain => 4,
        }
    }

    /// Whether admission sheds this class at this rung (strictly
    /// lowest-priority-first: best-effort at the first rung, everything at
    /// [`BrownoutLevel::Drain`]).
    #[must_use]
    pub fn sheds(self, class: Priority) -> bool {
        match self {
            BrownoutLevel::Normal => false,
            BrownoutLevel::ShedBestEffort | BrownoutLevel::CapBatch | BrownoutLevel::RejectUncached => {
                class == Priority::BestEffort
            }
            BrownoutLevel::Drain => true,
        }
    }

    /// Whether this rung rejects models whose program is not cached.
    #[must_use]
    pub fn rejects_uncached(self) -> bool {
        self >= BrownoutLevel::RejectUncached
    }

    /// The effective batch-size cap at this rung ([`BrownoutLevel::CapBatch`]
    /// and above halve it: smaller batches leave the queue drainable at
    /// lower latency, at some throughput cost).
    #[must_use]
    pub fn batch_cap(self, max_batch: usize) -> usize {
        if self >= BrownoutLevel::CapBatch {
            (max_batch / 2).max(1)
        } else {
            max_batch.max(1)
        }
    }

    /// Whether this rung caps in-flight work per execution unit. The
    /// single-layer server halves its batch cap here
    /// ([`batch_cap`](BrownoutLevel::batch_cap)); the pipeline — which has
    /// no batches — bounds each stage queue's depth instead, the analogous
    /// trade of throughput for queue-drain latency.
    #[must_use]
    pub fn caps_inflight(self) -> bool {
        self >= BrownoutLevel::CapBatch
    }

    /// Whether dequeue should switch to adaptive LIFO (serve the newest
    /// request of a class first): under sustained overload the oldest
    /// queued requests are the ones most likely already doomed to miss
    /// their deadlines, so serving fresh arrivals first converts the same
    /// capacity into more deadline hits, while the stale tail is shed by
    /// the existing deadline check at batch formation.
    #[must_use]
    pub fn lifo(self) -> bool {
        self >= BrownoutLevel::ShedBestEffort
    }
}

impl std::fmt::Display for BrownoutLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrownoutLevel::Normal => write!(f, "normal"),
            BrownoutLevel::ShedBestEffort => write!(f, "shed-best-effort"),
            BrownoutLevel::CapBatch => write!(f, "cap-batch"),
            BrownoutLevel::RejectUncached => write!(f, "reject-uncached"),
            BrownoutLevel::Drain => write!(f, "drain"),
        }
    }
}

/// A ladder transition reported by [`OverloadController::tick`], for the
/// server's transition counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelChange {
    /// The ladder climbed one rung (sustained overload).
    Escalated(BrownoutLevel),
    /// The ladder descended one rung (a quiet window).
    Deescalated(BrownoutLevel),
}

/// CoDel-style admission controller: sliding-window minimum sojourn time
/// against a delay target, driving the [`BrownoutLevel`] ladder.
///
/// Feed it every observed queue sojourn (at dequeue, plus the live age of
/// the queue head at admission — so a stalled queue with no dequeues still
/// registers as overloaded) and call [`tick`](OverloadController::tick)
/// whenever the clock is in hand; it rotates the window and steps the
/// ladder at window boundaries.
#[derive(Debug)]
pub struct OverloadController {
    target: Duration,
    window: Duration,
    level: BrownoutLevel,
    /// Start of the window currently accumulating samples.
    bucket_start: Instant,
    /// Minimum sojourn observed in the current window (`None` = no samples,
    /// which counts as "queue empty / draining fine").
    bucket_min: Option<Duration>,
}

impl OverloadController {
    /// A controller at [`BrownoutLevel::Normal`] whose first window starts
    /// `now`.
    #[must_use]
    pub fn new(target: Duration, window: Duration, now: Instant) -> Self {
        OverloadController {
            target,
            window: window.max(Duration::from_micros(1)),
            level: BrownoutLevel::Normal,
            bucket_start: now,
            bucket_min: None,
        }
    }

    /// The current brownout rung.
    #[must_use]
    pub fn level(&self) -> BrownoutLevel {
        self.level
    }

    /// The configured delay target.
    #[must_use]
    pub fn target(&self) -> Duration {
        self.target
    }

    /// Record one queue sojourn sample (time spent queued before dispatch,
    /// or the live age of a still-queued head).
    pub fn observe(&mut self, now: Instant, sojourn: Duration, changes: &mut Vec<LevelChange>) {
        self.tick(now, changes);
        self.bucket_min = Some(self.bucket_min.map_or(sojourn, |m| m.min(sojourn)));
    }

    /// Rotate the window if it elapsed, stepping the ladder one rung per
    /// completed window: up when the window's *minimum* sojourn exceeded
    /// the target (every request waited too long — standing overload),
    /// down otherwise (at least one request sailed through, or the queue
    /// was empty). Appends any transitions to `changes`.
    pub fn tick(&mut self, now: Instant, changes: &mut Vec<LevelChange>) {
        // Cap the catch-up work after a long idle gap: beyond a few quiet
        // windows the ladder is at Normal anyway.
        let mut guard = BrownoutLevel::ALL.len() + 1;
        while now.duration_since(self.bucket_start) >= self.window && guard > 0 {
            guard -= 1;
            let over = self.bucket_min.is_some_and(|m| m > self.target);
            let step = self.level.step();
            let next = if over {
                BrownoutLevel::from_step(step + 1)
            } else {
                BrownoutLevel::from_step(step.saturating_sub(1))
            };
            if next > self.level {
                changes.push(LevelChange::Escalated(next));
            } else if next < self.level {
                changes.push(LevelChange::Deescalated(next));
            }
            self.level = next;
            self.bucket_min = None;
            self.bucket_start += self.window;
        }
        if now.duration_since(self.bucket_start) >= self.window {
            // Still behind after the guard ran out (a very long gap):
            // everything in between was quiet, so jump the window to now.
            self.bucket_start = now;
            self.bucket_min = None;
        }
    }
}

/// The brownout step both lifecycles take under their queue lock: sample
/// the sojourn of work queued since `since` (the oldest queued head at
/// admission; the youngest member of a batch at dequeue, whose sojourn is
/// the batch's minimum) or, with nothing queued, just let the window tick
/// over; hand each ladder transition to `on_change`; return the rung in
/// force — [`BrownoutLevel::Normal`] when no controller is configured.
pub(crate) fn brownout_step(
    ctrl: Option<&mut OverloadController>,
    now: Instant,
    since: Option<Instant>,
    on_change: impl FnMut(LevelChange),
) -> BrownoutLevel {
    let Some(ctrl) = ctrl else { return BrownoutLevel::Normal };
    let mut changes = Vec::new();
    match since {
        Some(oldest) => ctrl.observe(now, now.duration_since(oldest), &mut changes),
        None => ctrl.tick(now, &mut changes),
    }
    changes.into_iter().for_each(on_change);
    ctrl.level()
}

/// Stride-scheduling weighted-fair queueing over the priority classes.
///
/// Each class holds a *pass* value; the class with the smallest pass among
/// the backlogged classes runs next, and dispatching `n` requests advances
/// the class's pass by `n · STRIDE / weight`. Higher weight ⇒ slower pass
/// growth ⇒ more frequent dispatch, yet any class with a positive weight
/// has a pass that stays finite while others grow — so no backlogged class
/// starves, which the property tests pin down.
#[derive(Debug)]
pub struct WfqScheduler {
    weights: [u64; CLASSES],
    pass: [u64; CLASSES],
}

/// Stride numerator: large enough that integer division keeps weight
/// ratios faithful.
const STRIDE: u64 = 1 << 20;

/// The weighted-fair dequeue weights (`[interactive, batch, best-effort]`)
/// both lifecycles hand to [`WfqScheduler::new`]: the [`Server`](crate::Server)
/// admission queue and a [`Pipeline`](crate::Pipeline)'s stage 0.
pub const CLASS_WEIGHTS: [u64; CLASSES] = [16, 4, 1];

impl WfqScheduler {
    /// A scheduler with the given per-class weights (zero weights are
    /// clamped to 1 — every class must stay schedulable).
    #[must_use]
    pub fn new(weights: [u64; CLASSES]) -> Self {
        WfqScheduler {
            weights: weights.map(|w| w.max(1)),
            pass: [0; CLASSES],
        }
    }

    /// The class to serve next among the backlogged ones (`None` when no
    /// class is backlogged). Ties break toward the higher-priority class.
    #[must_use]
    pub fn pick(&self, backlogged: [bool; CLASSES]) -> Option<Priority> {
        (0..CLASSES)
            .filter(|&c| backlogged[c])
            .min_by_key(|&c| (self.pass[c], c))
            .map(Priority::from_index)
    }

    /// Charge a dispatch of `n` requests to `class`.
    pub fn charge(&mut self, class: Priority, n: usize) {
        let c = class.index();
        self.pass[c] = self.pass[c].saturating_add(n as u64 * STRIDE / self.weights[c]);
    }

    /// Note that `class` just went from empty to backlogged: lift its pass
    /// to the smallest pass among the already-backlogged classes, so an
    /// idle class cannot bank credit and then monopolize the scheduler.
    pub fn activate(&mut self, class: Priority, backlogged: [bool; CLASSES]) {
        let floor = (0..CLASSES)
            .filter(|&c| backlogged[c] && c != class.index())
            .map(|c| self.pass[c])
            .min();
        if let Some(floor) = floor {
            let c = class.index();
            self.pass[c] = self.pass[c].max(floor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> Instant {
        Instant::now()
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn priority_indices_round_trip() {
        for p in Priority::ALL {
            assert_eq!(Priority::from_index(p.index()), p);
        }
        assert!(Priority::Interactive < Priority::Batch);
        assert!(Priority::Batch < Priority::BestEffort);
    }

    #[test]
    fn ladder_shedding_is_lowest_class_first() {
        use BrownoutLevel::*;
        assert!(!Normal.sheds(Priority::BestEffort));
        assert!(ShedBestEffort.sheds(Priority::BestEffort));
        assert!(!ShedBestEffort.sheds(Priority::Batch));
        assert!(!RejectUncached.sheds(Priority::Interactive));
        assert!(Drain.sheds(Priority::Interactive));
        assert_eq!(CapBatch.batch_cap(8), 4);
        assert_eq!(Normal.batch_cap(8), 8);
        assert_eq!(Drain.batch_cap(1), 1, "cap never reaches zero");
        assert!(!Normal.lifo());
        assert!(CapBatch.lifo());
        assert!(RejectUncached.rejects_uncached());
        assert!(!CapBatch.rejects_uncached());
        assert!(!ShedBestEffort.caps_inflight());
        assert!(CapBatch.caps_inflight());
        assert!(Drain.caps_inflight());
    }

    #[test]
    fn controller_escalates_one_rung_per_overloaded_window() {
        let start = t0();
        let mut c = OverloadController::new(5 * MS, 10 * MS, start);
        let mut ev = Vec::new();
        // Four consecutive windows where even the best sojourn exceeds the
        // 5 ms target: the ladder climbs to Drain, one rung per window.
        for w in 0..4u32 {
            let now = start + 10 * MS * w + MS;
            c.observe(now, 8 * MS, &mut ev);
            c.tick(start + 10 * MS * (w + 1), &mut ev);
        }
        assert_eq!(c.level(), BrownoutLevel::Drain);
        assert_eq!(
            ev,
            vec![
                LevelChange::Escalated(BrownoutLevel::ShedBestEffort),
                LevelChange::Escalated(BrownoutLevel::CapBatch),
                LevelChange::Escalated(BrownoutLevel::RejectUncached),
                LevelChange::Escalated(BrownoutLevel::Drain),
            ]
        );
    }

    #[test]
    fn one_fast_sample_in_a_window_blocks_escalation() {
        // CoDel uses the window *minimum*: a single request that sailed
        // through proves the queue drains, so no escalation.
        let start = t0();
        let mut c = OverloadController::new(5 * MS, 10 * MS, start);
        let mut ev = Vec::new();
        c.observe(start + MS, 50 * MS, &mut ev);
        c.observe(start + 2 * MS, MS, &mut ev);
        c.tick(start + 11 * MS, &mut ev);
        assert_eq!(c.level(), BrownoutLevel::Normal);
        assert!(ev.is_empty());
    }

    #[test]
    fn quiet_windows_deescalate_back_to_normal() {
        let start = t0();
        let mut c = OverloadController::new(MS, 10 * MS, start);
        let mut ev = Vec::new();
        for w in 0..2u32 {
            c.observe(start + 10 * MS * w + MS, 20 * MS, &mut ev);
        }
        c.tick(start + 20 * MS, &mut ev);
        assert_eq!(c.level(), BrownoutLevel::CapBatch);
        ev.clear();
        // Two windows with sub-target sojourns, then one with no samples
        // at all (empty queue): down a rung each.
        c.observe(start + 21 * MS, Duration::ZERO, &mut ev);
        c.tick(start + 30 * MS, &mut ev);
        c.observe(start + 31 * MS, Duration::ZERO, &mut ev);
        c.tick(start + 40 * MS, &mut ev);
        c.tick(start + 50 * MS, &mut ev);
        assert_eq!(c.level(), BrownoutLevel::Normal);
        assert_eq!(
            ev,
            vec![
                LevelChange::Deescalated(BrownoutLevel::ShedBestEffort),
                LevelChange::Deescalated(BrownoutLevel::Normal),
            ]
        );
    }

    #[test]
    fn long_idle_gap_resets_to_normal_without_unbounded_catchup() {
        let start = t0();
        let mut c = OverloadController::new(MS, MS, start);
        let mut ev = Vec::new();
        c.observe(start, 10 * MS, &mut ev);
        c.tick(start + MS, &mut ev);
        assert_eq!(c.level(), BrownoutLevel::ShedBestEffort);
        // An hour of silence: the ladder must be Normal and the window
        // must land at `now` without looping millions of times.
        c.tick(start + Duration::from_secs(3600), &mut ev);
        assert_eq!(c.level(), BrownoutLevel::Normal);
        // The next window behaves normally: one over-target window
        // escalates. (Ticking a further empty window would de-escalate
        // right back — an empty window is a drained queue.)
        c.observe(start + Duration::from_secs(3600), 10 * MS, &mut ev);
        c.tick(start + Duration::from_secs(3600) + MS, &mut ev);
        assert_eq!(c.level(), BrownoutLevel::ShedBestEffort);
    }

    #[test]
    fn wfq_prefers_the_heavier_class_proportionally() {
        let mut s = WfqScheduler::new([8, 2, 1]);
        let mut served = [0usize; CLASSES];
        for _ in 0..110 {
            let c = s.pick([true, true, true]).unwrap();
            served[c.index()] += 1;
            s.charge(c, 1);
        }
        // 8:2:1 over 110 dispatches → 80/20/10.
        assert_eq!(served, [80, 20, 10]);
    }

    #[test]
    fn wfq_serves_the_only_backlogged_class() {
        let s = WfqScheduler::new([8, 2, 1]);
        assert_eq!(s.pick([false, false, true]), Some(Priority::BestEffort));
        assert_eq!(s.pick([false, false, false]), None);
    }

    #[test]
    fn wfq_low_priority_class_is_not_starved() {
        let mut s = WfqScheduler::new([1000, 10, 1]);
        // Interactive is continuously backlogged; one best-effort request
        // waits. It must be served within a bounded number of dispatches.
        let mut dispatches = 0usize;
        loop {
            dispatches += 1;
            assert!(dispatches < 10_000, "best-effort starved");
            let c = s.pick([true, false, true]).unwrap();
            s.charge(c, 1);
            if c == Priority::BestEffort {
                break;
            }
        }
    }

    #[test]
    fn wfq_idle_class_cannot_bank_credit() {
        let mut s = WfqScheduler::new([1, 1, 1]);
        // Interactive runs alone for a while.
        for _ in 0..100 {
            let c = s.pick([true, false, false]).unwrap();
            s.charge(c, 1);
        }
        // Batch wakes up: after activation it may win at most its fair
        // share, not 100 dispatches in a row.
        s.activate(Priority::Batch, [true, true, false]);
        let mut batch_run = 0;
        for _ in 0..10 {
            let c = s.pick([true, true, false]).unwrap();
            s.charge(c, 1);
            if c == Priority::Batch {
                batch_run += 1;
            }
        }
        assert!(batch_run <= 6, "idle class replayed banked credit: {batch_run}/10");
    }
}
