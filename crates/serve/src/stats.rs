//! Serving statistics: throughput, tail latency, queue depth, batch sizes
//! and per-worker utilization.
//!
//! Everything on the hot path is a relaxed atomic update; latency
//! percentiles come from a fixed log2-bucketed histogram (one bucket per
//! power of two of nanoseconds), so p50/p95/p99 are accurate to within a
//! factor of √2 with zero allocation per request.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

use npcgra_sim::BackendTier;

use crate::overload::{BrownoutLevel, CLASSES};

/// How a worker shard's thread ended, reported by
/// [`Server::shutdown`](crate::Server::shutdown) instead of a panic
/// cascade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerExit {
    /// The shard drained the queue and exited normally.
    Clean,
    /// The supervisor exhausted the shard's restart budget and retired it.
    Unhealthy,
    /// The thread died outside the supervised execution region (a bug —
    /// the supervisor is supposed to catch every batch-execution panic).
    Panicked,
}

impl std::fmt::Display for WorkerExit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerExit::Clean => write!(f, "clean"),
            WorkerExit::Unhealthy => write!(f, "unhealthy"),
            WorkerExit::Panicked => write!(f, "panicked"),
        }
    }
}

/// Number of log2 latency buckets; bucket `i` holds samples in
/// `[2^i, 2^(i+1))` nanoseconds. 2^48 ns ≈ 78 hours, far beyond any request.
const LATENCY_BUCKETS: usize = 48;

/// Healthy run timings required before an [`NsPerCycle`] estimate (and
/// therefore the watchdog's wall deadline) is trusted.
const CALIBRATION_MIN_SAMPLES: u64 = 4;

/// Smoothing factor of the [`NsPerCycle`] calibration EWMAs: each healthy
/// run moves the estimate a fifth of the way toward its own ns-per-cycle.
const EWMA_ALPHA: f64 = 0.2;

/// Observed wall nanoseconds per predicted compute cycle — the watchdog's
/// cycles→wall conversion factor — as an EWMA over healthy runs. A
/// `Server` keeps one per backend tier, a `Pipeline` one per stage.
#[derive(Debug, Default)]
pub(crate) struct NsPerCycle {
    /// The estimate, as `f64` bits.
    bits: AtomicU64,
    samples: AtomicU64,
}

impl NsPerCycle {
    /// Fold in one healthy run predicted at `predicted` cycles that took
    /// `wall` (load-then-store: a lost race between two writers drops one
    /// sample, which the EWMA absorbs).
    pub(crate) fn observe(&self, predicted: u64, wall: Duration) {
        if predicted == 0 {
            return;
        }
        let obs = wall.as_nanos() as f64 / predicted as f64;
        let old = f64::from_bits(self.bits.load(Ordering::Relaxed));
        let new = if self.samples.fetch_add(1, Ordering::Relaxed) == 0 {
            obs
        } else {
            old + EWMA_ALPHA * (obs - old)
        };
        self.bits.store(new.to_bits(), Ordering::Relaxed);
    }

    /// The calibrated estimate; `None` until enough healthy runs have been
    /// timed, or while the estimate is not positive — an unarmed watchdog
    /// beats a trigger-happy one.
    pub(crate) fn get(&self) -> Option<f64> {
        if self.samples.load(Ordering::Relaxed) < CALIBRATION_MIN_SAMPLES {
            return None;
        }
        let v = f64::from_bits(self.bits.load(Ordering::Relaxed));
        (v > 0.0).then_some(v)
    }
}

/// Per-tenant outcome counters, written by a front-end (e.g.
/// `npcgra-net`) through its [`TenantHandle`]. Writes use `Release` and
/// the snapshot reads `Acquire` — the same discipline as
/// `admitted_by_class`, so a tenant admission that happened-before a
/// captured completion is visible in the same snapshot.
#[derive(Debug)]
struct TenantCell {
    name: String,
    admitted: AtomicU64,
    rejected: AtomicU64,
    rate_limited: AtomicU64,
    evicted_slow_loris: AtomicU64,
}

/// A front-end's write handle to one tenant's counters. Cheap to clone;
/// obtained from [`Server::register_tenant`](crate::Server::register_tenant).
#[derive(Debug, Clone)]
pub struct TenantHandle(Arc<TenantCell>);

impl TenantHandle {
    /// Count a request admitted into the serving core for this tenant.
    pub fn note_admitted(&self) {
        self.0.admitted.fetch_add(1, Ordering::Release);
    }
    /// Count a request rejected (quota, backpressure, or a serving-core
    /// rejection) for this tenant.
    pub fn note_rejected(&self) {
        self.0.rejected.fetch_add(1, Ordering::Release);
    }
    /// Count a request shed by this tenant's token bucket.
    pub fn note_rate_limited(&self) {
        self.0.rate_limited.fetch_add(1, Ordering::Release);
    }
    /// Count a slow-loris eviction of a connection authenticated as this
    /// tenant.
    pub fn note_evicted_slow_loris(&self) {
        self.0.evicted_slow_loris.fetch_add(1, Ordering::Release);
    }
}

/// One tenant's counters as captured in a [`StatsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// The tenant's registered name.
    pub name: String,
    /// Requests admitted into the serving core.
    pub admitted: u64,
    /// Requests rejected (quota, backpressure or serving-core rejection).
    pub rejected: u64,
    /// Requests shed by the tenant's token bucket.
    pub rate_limited: u64,
    /// Slow-loris evictions of connections authenticated as this tenant.
    pub evicted_slow_loris: u64,
}

/// Live counters, shared between the submission path and the workers.
#[derive(Debug)]
pub(crate) struct Stats {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub rejected_queue_full: AtomicU64,
    pub rejected_deadline: AtomicU64,
    pub rejected_shutdown: AtomicU64,
    pub failed: AtomicU64,
    pub max_queue_depth: AtomicU64,
    /// Panics caught by the shard supervisor.
    pub panics_caught: AtomicU64,
    /// Shard respawns (a caught panic followed by a machine rebuild).
    pub restarts: AtomicU64,
    /// Batch re-executions driven by the retry/bisect policy.
    pub retries: AtomicU64,
    /// Requests isolated as poison after bisection + retry-cap exhaustion.
    pub quarantined: AtomicU64,
    /// Requests shed because the server was degraded (too few healthy
    /// shards) at admission or after a shard collapse.
    pub degraded_sheds: AtomicU64,
    /// Blocks whose outputs passed an ABFT integrity check.
    pub integrity_checked: AtomicU64,
    /// Batch executions that failed an ABFT integrity check.
    pub integrity_failed: AtomicU64,
    /// Requests that hit an integrity failure and still completed
    /// bit-exact on a later attempt (corruption caught and healed).
    pub integrity_recovered: AtomicU64,
    /// Replies dropped because the ticket was abandoned before they landed.
    pub late_replies: AtomicU64,
    /// Canary self-tests run by shards.
    pub canary_runs: AtomicU64,
    /// Canary self-tests that failed (wrong output, error or panic).
    pub canary_failed: AtomicU64,
    /// Requests admitted, by priority class.
    pub admitted_by_class: [AtomicU64; CLASSES],
    /// Requests shed at admission by the brownout ladder, by class.
    pub overload_sheds: [AtomicU64; CLASSES],
    /// Queued lower-priority requests evicted to admit a higher class.
    pub priority_evictions: AtomicU64,
    /// Brownout-ladder climbs (one per sustained-overload window).
    pub brownout_escalations: AtomicU64,
    /// Brownout-ladder descents (one per quiet window).
    pub brownout_deescalations: AtomicU64,
    /// Current brownout rung, as [`BrownoutLevel`]'s dense step.
    brownout_gauge: AtomicU64,
    /// Batches preempted by the liveness layer — the watchdog cancelling a
    /// stuck run's token, or a run blowing its cycle budget.
    pub watchdog_preemptions: AtomicU64,
    /// One calibration per backend tier (indexed by
    /// [`BackendTier::index`]): the fast tier runs orders of magnitude more
    /// cycles per wall second, so sharing one estimate across a tier switch
    /// would arm absurd deadlines and preempt honest batches — and a
    /// freshly switched tier starts uncalibrated.
    pub(crate) ns_per_cycle: [NsPerCycle; BackendTier::COUNT],
    /// Compute+DMA cycles charged by successful runs, per backend tier.
    cycles_charged: [AtomicU64; BackendTier::COUNT],
    /// Fast-tier batches replayed on a scratch cycle-accurate machine.
    pub cross_checks: AtomicU64,
    /// Cross-check replays that diverged (output bits or charged cycles) —
    /// each retires the shard that produced the fast-tier result.
    pub cross_check_failed: AtomicU64,
    /// Per-shard death flags, set once when the restart budget runs out.
    shard_dead: Vec<AtomicBool>,
    /// Records appended to the admission journal (admits + acks). These
    /// six journal counters are mirrored from the writer's monotone totals
    /// under the journal lock (`Relaxed` stores), so they are all zero on
    /// a journal-less server by construction.
    pub journal_appends: AtomicU64,
    /// fsync batches the journal writer issued.
    pub journal_fsyncs: AtomicU64,
    /// Journal bytes made durable (fsynced file length).
    pub journal_bytes: AtomicU64,
    /// Admitted-but-unacknowledged requests replayed at recovery.
    pub journal_replayed: AtomicU64,
    /// Journal I/O failures absorbed at runtime (append/flush/sever).
    pub journal_errors: AtomicU64,
    /// Requests answered from the idempotency dedup table (redelivery of a
    /// remembered outcome, or a duplicate parked on the owning execution).
    pub dedup_hits: AtomicU64,
    /// Times two executions completed the same idempotency key — the
    /// exactly-once invariant failing. The crash soak gates on zero.
    pub duplicate_executions: AtomicU64,
    latency: [AtomicU64; LATENCY_BUCKETS],
    /// `batch_hist[i]` counts batches of size `i`; index 0 is unused.
    batch_hist: Vec<AtomicU64>,
    worker_busy_ns: Vec<AtomicU64>,
    /// Tenants registered by a front-end; empty (and cost-free) without one.
    tenants: RwLock<Vec<Arc<TenantCell>>>,
}

impl Stats {
    pub(crate) fn new(workers: usize, max_batch: usize) -> Self {
        Stats {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_deadline: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            degraded_sheds: AtomicU64::new(0),
            integrity_checked: AtomicU64::new(0),
            integrity_failed: AtomicU64::new(0),
            integrity_recovered: AtomicU64::new(0),
            late_replies: AtomicU64::new(0),
            canary_runs: AtomicU64::new(0),
            canary_failed: AtomicU64::new(0),
            admitted_by_class: std::array::from_fn(|_| AtomicU64::new(0)),
            overload_sheds: std::array::from_fn(|_| AtomicU64::new(0)),
            priority_evictions: AtomicU64::new(0),
            brownout_escalations: AtomicU64::new(0),
            brownout_deescalations: AtomicU64::new(0),
            brownout_gauge: AtomicU64::new(0),
            watchdog_preemptions: AtomicU64::new(0),
            ns_per_cycle: Default::default(),
            cycles_charged: std::array::from_fn(|_| AtomicU64::new(0)),
            cross_checks: AtomicU64::new(0),
            cross_check_failed: AtomicU64::new(0),
            shard_dead: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            journal_appends: AtomicU64::new(0),
            journal_fsyncs: AtomicU64::new(0),
            journal_bytes: AtomicU64::new(0),
            journal_replayed: AtomicU64::new(0),
            journal_errors: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            duplicate_executions: AtomicU64::new(0),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
            batch_hist: (0..=max_batch).map(|_| AtomicU64::new(0)).collect(),
            worker_busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            tenants: RwLock::new(Vec::new()),
        }
    }

    /// Register a tenant and return its write handle. Registration is
    /// rare (front-end startup), so a write lock here is fine; the
    /// handle's increments are lock-free.
    pub(crate) fn register_tenant(&self, name: &str) -> TenantHandle {
        let cell = Arc::new(TenantCell {
            name: name.to_string(),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            evicted_slow_loris: AtomicU64::new(0),
        });
        self.tenants
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&cell));
        TenantHandle(cell)
    }

    fn tenant_snapshots(&self) -> Vec<TenantSnapshot> {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|t| TenantSnapshot {
                name: t.name.clone(),
                admitted: t.admitted.load(Ordering::Acquire),
                rejected: t.rejected.load(Ordering::Acquire),
                rate_limited: t.rate_limited.load(Ordering::Acquire),
                evicted_slow_loris: t.evicted_slow_loris.load(Ordering::Acquire),
            })
            .collect()
    }

    pub(crate) fn observe_queue_depth(&self, depth: u64) {
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    pub(crate) fn observe_latency(&self, latency: Duration) {
        let ns = latency.as_nanos().max(1) as u64;
        let bucket = (63 - ns.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.latency[bucket].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn set_brownout_level(&self, level: BrownoutLevel) {
        let step = BrownoutLevel::ALL.iter().position(|&l| l == level).unwrap_or(0);
        self.brownout_gauge.store(step as u64, Ordering::Relaxed);
    }

    pub(crate) fn observe_batch(&self, size: usize) {
        let i = size.min(self.batch_hist.len() - 1);
        self.batch_hist[i].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn observe_worker_busy(&self, worker: usize, busy: Duration) {
        self.worker_busy_ns[worker].fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn mark_shard_dead(&self, worker: usize) {
        self.shard_dead[worker].store(true, Ordering::Relaxed);
    }

    /// Account the cycles a successful run charged against its tier.
    pub(crate) fn observe_cycles_charged(&self, tier: BackendTier, cycles: u64) {
        self.cycles_charged[tier.index()].fetch_add(cycles, Ordering::Relaxed);
    }

    /// Latency at quantile `q` (0..1): geometric midpoint of the bucket the
    /// quantile sample falls in.
    fn latency_quantile(&self, q: f64) -> Duration {
        let counts: Vec<u64> = self.latency.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Duration::ZERO;
        }
        let target = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                let ns = 2f64.powi(i as i32) * std::f64::consts::SQRT_2;
                return Duration::from_nanos(ns as u64);
            }
        }
        Duration::ZERO
    }

    pub(crate) fn snapshot(&self, elapsed: Duration, queue_depth: usize) -> StatsSnapshot {
        // Capture order matters for self-consistency: load the *sink*
        // counters (completed/failed/quarantined — written with `Release`
        // after the request was admitted) with `Acquire` first, then the
        // source counter (`submitted`) last. Any admission that
        // happened-before a captured completion is then guaranteed visible,
        // so derived ratios and the debug invariants below never see
        // `completed > submitted` mid-flight.
        let completed = self.completed.load(Ordering::Acquire);
        let failed = self.failed.load(Ordering::Acquire);
        let quarantined = self.quarantined.load(Ordering::Acquire);
        let admitted_by_class = std::array::from_fn(|c| self.admitted_by_class[c].load(Ordering::Acquire));
        // Tenant counters are sinks too (written Release by the front-end
        // after its admission decision), so they join the Acquire phase.
        let tenants = self.tenant_snapshots();
        let mut snap = StatsSnapshot {
            tenants,
            elapsed,
            completed,
            failed,
            quarantined,
            admitted_by_class,
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            degraded_sheds: self.degraded_sheds.load(Ordering::Relaxed),
            overload_sheds: std::array::from_fn(|c| self.overload_sheds[c].load(Ordering::Relaxed)),
            priority_evictions: self.priority_evictions.load(Ordering::Relaxed),
            brownout_escalations: self.brownout_escalations.load(Ordering::Relaxed),
            brownout_deescalations: self.brownout_deescalations.load(Ordering::Relaxed),
            brownout_level: BrownoutLevel::ALL
                [(self.brownout_gauge.load(Ordering::Relaxed) as usize).min(BrownoutLevel::ALL.len() - 1)],
            integrity_checked: self.integrity_checked.load(Ordering::Relaxed),
            integrity_failed: self.integrity_failed.load(Ordering::Relaxed),
            integrity_recovered: self.integrity_recovered.load(Ordering::Relaxed),
            late_replies: self.late_replies.load(Ordering::Relaxed),
            canary_runs: self.canary_runs.load(Ordering::Relaxed),
            canary_failed: self.canary_failed.load(Ordering::Relaxed),
            watchdog_preemptions: self.watchdog_preemptions.load(Ordering::Relaxed),
            journal_appends: self.journal_appends.load(Ordering::Relaxed),
            journal_fsyncs: self.journal_fsyncs.load(Ordering::Relaxed),
            journal_bytes: self.journal_bytes.load(Ordering::Relaxed),
            journal_replayed: self.journal_replayed.load(Ordering::Relaxed),
            journal_errors: self.journal_errors.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            duplicate_executions: self.duplicate_executions.load(Ordering::Relaxed),
            ns_per_cycle: std::array::from_fn(|t| self.ns_per_cycle[t].get().unwrap_or(0.0)),
            cycles_charged: std::array::from_fn(|t| self.cycles_charged[t].load(Ordering::Relaxed)),
            cross_checks: self.cross_checks.load(Ordering::Relaxed),
            cross_check_failed: self.cross_check_failed.load(Ordering::Relaxed),
            shard_health: self.shard_dead.iter().map(|d| !d.load(Ordering::Relaxed)).collect(),
            worker_exits: Vec::new(),
            throughput_rps: if elapsed.as_secs_f64() > 0.0 {
                completed as f64 / elapsed.as_secs_f64()
            } else {
                0.0
            },
            p50: self.latency_quantile(0.50),
            p95: self.latency_quantile(0.95),
            p99: self.latency_quantile(0.99),
            queue_depth,
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            batch_histogram: self.batch_hist.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            worker_utilization: self
                .worker_busy_ns
                .iter()
                .map(|b| {
                    let wall = elapsed.as_nanos().max(1) as f64;
                    (b.load(Ordering::Relaxed) as f64 / wall).min(1.0)
                })
                .collect(),
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            // Loaded last; see the capture-order note above.
            submitted: 0,
        };
        snap.submitted = self.submitted.load(Ordering::Relaxed);
        snap.debug_assert_consistent();
        snap
    }
}

/// A point-in-time view of the server's counters.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Wall-clock time since the server started.
    pub elapsed: Duration,
    /// Requests accepted by admission control.
    pub submitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests shed because the queue was at capacity.
    pub rejected_queue_full: u64,
    /// Requests shed because their deadline passed before execution.
    pub rejected_deadline: u64,
    /// Requests rejected during shutdown.
    pub rejected_shutdown: u64,
    /// Requests that failed in the simulator.
    pub failed: u64,
    /// Worker-shard panics caught by the supervisor.
    pub panics_caught: u64,
    /// Shard respawns performed by the supervisor.
    pub restarts: u64,
    /// Batch re-executions driven by the retry/bisect policy.
    pub retries: u64,
    /// Requests isolated as poison by bisection + retry-cap exhaustion.
    pub quarantined: u64,
    /// Requests shed in degraded mode (too few healthy shards).
    pub degraded_sheds: u64,
    /// Blocks whose outputs passed an ABFT integrity check.
    pub integrity_checked: u64,
    /// Batch executions that failed an ABFT integrity check (each feeds
    /// the retry/bisect policy as a retryable failure).
    pub integrity_failed: u64,
    /// Requests that hit an integrity failure and still completed
    /// bit-exact on a later attempt.
    pub integrity_recovered: u64,
    /// Replies dropped because their ticket was abandoned first.
    pub late_replies: u64,
    /// Canary self-tests run by shards.
    pub canary_runs: u64,
    /// Canary self-tests failed (a failing shard is retired
    /// [`WorkerExit::Unhealthy`] after two consecutive strikes).
    pub canary_failed: u64,
    /// Requests admitted, indexed by [`Priority`](crate::Priority) class
    /// (`[interactive, batch, best-effort]`).
    pub admitted_by_class: [u64; CLASSES],
    /// Requests shed at admission by the brownout ladder, by class.
    pub overload_sheds: [u64; CLASSES],
    /// Queued lower-priority requests evicted to admit a higher class
    /// through a full queue.
    pub priority_evictions: u64,
    /// Brownout-ladder climbs (one per sustained-overload window).
    pub brownout_escalations: u64,
    /// Brownout-ladder descents (one per quiet window).
    pub brownout_deescalations: u64,
    /// The brownout rung in force at snapshot time.
    pub brownout_level: BrownoutLevel,
    /// Batches preempted by the liveness layer (the watchdog cancelling a
    /// stuck run, or a run exceeding its cycle budget).
    pub watchdog_preemptions: u64,
    /// Records appended to the admission journal (admits + acks); zero on
    /// a journal-less server.
    pub journal_appends: u64,
    /// fsync batches the journal writer issued.
    pub journal_fsyncs: u64,
    /// Journal bytes made durable (fsynced file length).
    pub journal_bytes: u64,
    /// Admitted-but-unacknowledged requests recovered from the journal at
    /// startup (set by [`Server::start_with_journal`](crate::Server::start_with_journal)).
    pub journal_replayed: u64,
    /// Journal I/O failures absorbed at runtime instead of failing requests.
    pub journal_errors: u64,
    /// Requests answered from the idempotency dedup table instead of
    /// executing (bit-exact redelivery or parked duplicates).
    pub dedup_hits: u64,
    /// Times two executions completed the same idempotency key — the
    /// exactly-once invariant failing. The crash soak gates on zero.
    pub duplicate_executions: u64,
    /// Calibrated wall nanoseconds per predicted compute cycle, one slot
    /// per backend tier (indexed by [`BackendTier::index`]); `0.0` until
    /// enough batches were timed on that tier.
    pub ns_per_cycle: [f64; BackendTier::COUNT],
    /// Compute+DMA cycles charged by successful runs, per backend tier
    /// (indexed by [`BackendTier::index`]).
    pub cycles_charged: [u64; BackendTier::COUNT],
    /// Fast-tier batches replayed on a scratch cycle-accurate machine.
    pub cross_checks: u64,
    /// Cross-check replays that diverged in output bits or charged cycles
    /// (each one retired the shard that produced the fast-tier result).
    pub cross_check_failed: u64,
    /// `shard_health[w]` is `false` once worker `w` exhausted its restart
    /// budget and was retired by the supervisor.
    pub shard_health: Vec<bool>,
    /// How each worker thread ended. Empty until
    /// [`Server::shutdown`](crate::Server::shutdown) joins the workers.
    pub worker_exits: Vec<WorkerExit>,
    /// Completed requests per second of server lifetime.
    pub throughput_rps: f64,
    /// Median request latency (log2-bucket approximation).
    pub p50: Duration,
    /// 95th-percentile request latency.
    pub p95: Duration,
    /// 99th-percentile request latency.
    pub p99: Duration,
    /// Requests queued at snapshot time.
    pub queue_depth: usize,
    /// Largest queue depth observed.
    pub max_queue_depth: u64,
    /// `batch_histogram[i]` = number of batches run with exactly `i`
    /// requests (index 0 unused).
    pub batch_histogram: Vec<u64>,
    /// Fraction of wall-clock time each worker shard spent executing.
    pub worker_utilization: Vec<f64>,
    /// Program-cache hits (filled in by the server).
    pub cache_hits: u64,
    /// Program-cache misses, i.e. compilations (filled in by the server).
    pub cache_misses: u64,
    /// Programs evicted from the bounded cache (filled in by the server).
    pub cache_evictions: u64,
    /// Per-tenant outcome counters, in registration order. Empty unless a
    /// front-end registered tenants via
    /// [`Server::register_tenant`](crate::Server::register_tenant).
    pub tenants: Vec<TenantSnapshot>,
}

impl StatsSnapshot {
    /// Number of worker shards still healthy (restart budget not exhausted).
    #[must_use]
    pub fn healthy_workers(&self) -> usize {
        self.shard_health.iter().filter(|h| **h).count()
    }

    /// Cache hit rate in `[0, 1]`; zero when the cache was never consulted.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Debug-only self-consistency check on the captured counters. The
    /// capture order in `Stats::snapshot` makes these monotonic invariants
    /// hold even mid-flight; release builds skip the check.
    pub(crate) fn debug_assert_consistent(&self) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.completed + self.failed <= self.submitted,
                "resolved ({} + {}) exceeds submitted ({})",
                self.completed,
                self.failed,
                self.submitted
            );
            debug_assert!(
                self.quarantined <= self.failed,
                "quarantined ({}) exceeds failed ({})",
                self.quarantined,
                self.failed
            );
            debug_assert!(
                self.admitted_by_class.iter().sum::<u64>() <= self.submitted,
                "per-class admissions exceed submitted"
            );
        }
    }

    /// Mean batch size over all batches run.
    #[must_use]
    pub fn mean_batch_size(&self) -> f64 {
        let batches: u64 = self.batch_histogram.iter().sum();
        if batches == 0 {
            return 0.0;
        }
        let requests: u64 = self.batch_histogram.iter().enumerate().map(|(i, c)| i as u64 * c).sum();
        requests as f64 / batches as f64
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests: {} submitted, {} completed, {} failed ({:.1} req/s over {:.2}s)",
            self.submitted,
            self.completed,
            self.failed,
            self.throughput_rps,
            self.elapsed.as_secs_f64(),
        )?;
        writeln!(
            f,
            "shed:     {} queue-full, {} deadline, {} shutdown",
            self.rejected_queue_full, self.rejected_deadline, self.rejected_shutdown
        )?;
        writeln!(
            f,
            "latency:  p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
            self.p50.as_secs_f64() * 1e3,
            self.p95.as_secs_f64() * 1e3,
            self.p99.as_secs_f64() * 1e3,
        )?;
        writeln!(
            f,
            "queue:    {} now, {} peak (capacity bound applied at admission)",
            self.queue_depth, self.max_queue_depth
        )?;
        let batches: Vec<String> = self
            .batch_histogram
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, c)| format!("{i}:{c}"))
            .collect();
        writeln!(
            f,
            "batches:  sizes {{{}}} (mean {:.2})",
            batches.join(" "),
            self.mean_batch_size()
        )?;
        writeln!(
            f,
            "cache:    {} hits / {} misses / {} evictions (hit rate {:.1}%)",
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.cache_hit_rate() * 100.0
        )?;
        writeln!(
            f,
            "faults:   {} panics caught, {} restarts, {} retries, {} quarantined, {} degraded sheds",
            self.panics_caught, self.restarts, self.retries, self.quarantined, self.degraded_sheds
        )?;
        writeln!(
            f,
            "overload: level {} ({}↑ {}↓); admitted i:{} b:{} be:{}; shed i:{} b:{} be:{}; {} evictions",
            self.brownout_level,
            self.brownout_escalations,
            self.brownout_deescalations,
            self.admitted_by_class[0],
            self.admitted_by_class[1],
            self.admitted_by_class[2],
            self.overload_sheds[0],
            self.overload_sheds[1],
            self.overload_sheds[2],
            self.priority_evictions,
        )?;
        writeln!(
            f,
            "abft:     {} blocks checked, {} failures detected, {} requests recovered; \
             {} canary runs ({} failed); {} late replies",
            self.integrity_checked,
            self.integrity_failed,
            self.integrity_recovered,
            self.canary_runs,
            self.canary_failed,
            self.late_replies
        )?;
        writeln!(
            f,
            "health:   {}/{} shards healthy",
            self.healthy_workers(),
            self.shard_health.len()
        )?;
        let calibrated: Vec<String> = BackendTier::ALL
            .iter()
            .filter(|t| self.ns_per_cycle[t.index()] > 0.0)
            .map(|t| format!("{t} {:.2}", self.ns_per_cycle[t.index()]))
            .collect();
        writeln!(
            f,
            "liveness: {} watchdog preemption(s); {} ns/cycle calibrated",
            self.watchdog_preemptions,
            if calibrated.is_empty() {
                "not yet".to_string()
            } else {
                calibrated.join(", ")
            }
        )?;
        writeln!(
            f,
            "tiers:    cycles charged cycle-accurate:{} fast:{}; {} cross-check(s), {} divergence(s)",
            self.cycles_charged[BackendTier::CycleAccurate.index()],
            self.cycles_charged[BackendTier::Fast.index()],
            self.cross_checks,
            self.cross_check_failed,
        )?;
        if self.journal_appends > 0 || self.journal_replayed > 0 || self.dedup_hits > 0 || self.journal_errors > 0 {
            writeln!(
                f,
                "journal:  {} appends, {} fsyncs, {} bytes durable; {} replayed, {} dedup hits, \
                 {} duplicate executions, {} errors",
                self.journal_appends,
                self.journal_fsyncs,
                self.journal_bytes,
                self.journal_replayed,
                self.dedup_hits,
                self.duplicate_executions,
                self.journal_errors,
            )?;
        }
        if !self.tenants.is_empty() {
            let tenants: Vec<String> = self
                .tenants
                .iter()
                .map(|t| {
                    format!(
                        "{}(adm:{} rej:{} rate:{} loris:{})",
                        t.name, t.admitted, t.rejected, t.rate_limited, t.evicted_slow_loris
                    )
                })
                .collect();
            writeln!(f, "tenants:  {}", tenants.join(" "))?;
        }
        if !self.worker_exits.is_empty() {
            let exits: Vec<String> = self
                .worker_exits
                .iter()
                .enumerate()
                .map(|(i, e)| format!("w{i}:{e}"))
                .collect();
            writeln!(f, "exits:    {}", exits.join(" "))?;
        }
        let utils: Vec<String> = self
            .worker_utilization
            .iter()
            .enumerate()
            .map(|(i, u)| format!("w{i}:{:.0}%", u * 100.0))
            .collect();
        write!(
            f,
            "workers:  {}",
            if utils.is_empty() {
                "none".to_string()
            } else {
                utils.join(" ")
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_quantiles_order() {
        let s = Stats::new(1, 4);
        for us in [100u64, 200, 400, 800, 10_000] {
            s.observe_latency(Duration::from_micros(us));
        }
        let snap = s.snapshot(Duration::from_secs(1), 0);
        assert!(snap.p50 <= snap.p95);
        assert!(snap.p95 <= snap.p99);
        assert!(snap.p99 >= Duration::from_micros(5_000), "p99 lands in the top bucket");
    }

    #[test]
    fn bucket_approximation_within_sqrt2() {
        let s = Stats::new(1, 4);
        s.observe_latency(Duration::from_micros(1000));
        let p50 = s.snapshot(Duration::from_secs(1), 0).p50;
        let ratio = p50.as_nanos() as f64 / 1_000_000.0;
        assert!(
            (1.0 / std::f64::consts::SQRT_2..=std::f64::consts::SQRT_2).contains(&ratio),
            "ratio {ratio}"
        );
    }

    #[test]
    fn batch_histogram_and_mean() {
        let s = Stats::new(2, 4);
        s.observe_batch(1);
        s.observe_batch(4);
        s.observe_batch(4);
        let snap = s.snapshot(Duration::from_secs(1), 0);
        assert_eq!(snap.batch_histogram[1], 1);
        assert_eq!(snap.batch_histogram[4], 2);
        assert!((snap.mean_batch_size() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_is_bounded() {
        let s = Stats::new(1, 2);
        s.observe_worker_busy(0, Duration::from_secs(10));
        let snap = s.snapshot(Duration::from_secs(1), 0);
        assert!((snap.worker_utilization[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_key_fields() {
        let s = Stats::new(2, 4);
        s.submitted.fetch_add(3, Ordering::Relaxed);
        s.completed.fetch_add(3, Ordering::Relaxed);
        let text = s.snapshot(Duration::from_secs(1), 1).to_string();
        assert!(text.contains("p99"));
        assert!(text.contains("hit rate"));
        assert!(text.contains("w1:"));
        assert!(text.contains("quarantined"));
        assert!(text.contains("2/2 shards healthy"));
        assert!(text.contains("abft:"));
        assert!(text.contains("late replies"));
    }

    #[test]
    fn display_mentions_overload_fields() {
        let s = Stats::new(2, 4);
        s.submitted.fetch_add(5, Ordering::Relaxed);
        s.admitted_by_class[0].fetch_add(5, Ordering::Relaxed);
        s.overload_sheds[2].fetch_add(2, Ordering::Relaxed);
        s.set_brownout_level(BrownoutLevel::CapBatch);
        let snap = s.snapshot(Duration::from_secs(1), 0);
        assert_eq!(snap.admitted_by_class, [5, 0, 0]);
        assert_eq!(snap.overload_sheds, [0, 0, 2]);
        assert_eq!(snap.brownout_level, BrownoutLevel::CapBatch);
        let text = snap.to_string();
        assert!(text.contains("overload: level cap-batch"));
    }

    #[test]
    fn ns_per_cycle_calibrates_after_min_samples() {
        let cell = NsPerCycle::default();
        // 1000 predicted cycles in 2 µs → 2 ns/cycle, four times over.
        for n in 0..4 {
            assert_eq!(cell.get(), None, "uncalibrated after {n} samples");
            cell.observe(1000, Duration::from_micros(2));
        }
        let v = cell.get().expect("calibrated after 4 samples");
        assert!((v - 2.0).abs() < 1e-9, "steady input converges exactly, got {v}");
        // Zero predicted cycles is ignored rather than dividing by zero.
        cell.observe(0, Duration::from_secs(1));
        assert!((cell.get().unwrap() - 2.0).abs() < 1e-9);
        // Zero-duration samples calibrate a 0.0 slope, which must never arm
        // a deadline (it would be the bare floor, whatever was predicted).
        let zero = NsPerCycle::default();
        for _ in 0..4 {
            zero.observe(1000, Duration::ZERO);
        }
        assert_eq!(zero.get(), None, "a non-positive estimate stays uncalibrated");
    }

    #[test]
    fn ns_per_cycle_is_calibrated_per_tier() {
        // The fast tier charges the same cycles in far less wall time; its
        // EWMA must neither see nor pollute the cycle tier's estimate, or a
        // tier switch would arm watchdog deadlines off by orders of
        // magnitude and preempt honest batches.
        let s = Stats::new(1, 4);
        for _ in 0..4 {
            s.ns_per_cycle[BackendTier::CycleAccurate.index()].observe(1000, Duration::from_micros(2));
        }
        assert_eq!(
            s.ns_per_cycle[BackendTier::Fast.index()].get(),
            None,
            "fast tier starts uncalibrated"
        );
        for _ in 0..4 {
            s.ns_per_cycle[BackendTier::Fast.index()].observe(1000, Duration::from_nanos(20));
        }
        assert!((s.ns_per_cycle[BackendTier::CycleAccurate.index()].get().unwrap() - 2.0).abs() < 1e-9);
        assert!((s.ns_per_cycle[BackendTier::Fast.index()].get().unwrap() - 0.02).abs() < 1e-9);
        let snap = s.snapshot(Duration::from_secs(1), 0);
        assert!((snap.ns_per_cycle[0] - 2.0).abs() < 1e-9);
        assert!((snap.ns_per_cycle[1] - 0.02).abs() < 1e-9);
        assert!(snap.to_string().contains("cycle-accurate 2.00"));
        assert!(snap.to_string().contains("fast 0.02"));
    }

    #[test]
    fn tier_cycle_totals_and_cross_checks_surface() {
        let s = Stats::new(1, 4);
        s.observe_cycles_charged(BackendTier::CycleAccurate, 100);
        s.observe_cycles_charged(BackendTier::Fast, 2500);
        s.observe_cycles_charged(BackendTier::Fast, 500);
        s.cross_checks.fetch_add(3, Ordering::Relaxed);
        s.cross_check_failed.fetch_add(1, Ordering::Relaxed);
        let snap = s.snapshot(Duration::from_secs(1), 0);
        assert_eq!(snap.cycles_charged, [100, 3000]);
        assert_eq!(snap.cross_checks, 3);
        assert_eq!(snap.cross_check_failed, 1);
        let text = snap.to_string();
        assert!(text.contains("cycles charged cycle-accurate:100 fast:3000"));
        assert!(text.contains("3 cross-check(s), 1 divergence(s)"));
    }

    #[test]
    fn watchdog_preemptions_surface_in_snapshot_and_display() {
        let s = Stats::new(1, 4);
        s.watchdog_preemptions.fetch_add(3, Ordering::Relaxed);
        let snap = s.snapshot(Duration::from_secs(1), 0);
        assert_eq!(snap.watchdog_preemptions, 3);
        assert!(snap.to_string().contains("3 watchdog preemption(s)"));
    }

    #[test]
    fn journal_counters_surface_only_when_active() {
        let s = Stats::new(1, 4);
        let quiet = s.snapshot(Duration::from_secs(1), 0);
        assert_eq!(quiet.journal_appends, 0);
        assert_eq!(quiet.dedup_hits, 0);
        assert!(
            !quiet.to_string().contains("journal:"),
            "a journal-less server's stats never mention the journal"
        );
        s.journal_appends.store(7, Ordering::Relaxed);
        s.journal_fsyncs.store(2, Ordering::Relaxed);
        s.journal_bytes.store(640, Ordering::Relaxed);
        s.journal_replayed.store(3, Ordering::Relaxed);
        s.dedup_hits.fetch_add(1, Ordering::Relaxed);
        let snap = s.snapshot(Duration::from_secs(1), 0);
        assert_eq!(snap.journal_appends, 7);
        assert_eq!(snap.journal_replayed, 3);
        assert_eq!(snap.duplicate_executions, 0);
        let text = snap.to_string();
        assert!(text.contains("journal:  7 appends, 2 fsyncs, 640 bytes durable"));
        assert!(text.contains("3 replayed, 1 dedup hits, 0 duplicate executions"));
    }

    #[test]
    fn shard_death_flips_health() {
        let s = Stats::new(3, 4);
        s.mark_shard_dead(1);
        let snap = s.snapshot(Duration::from_secs(1), 0);
        assert_eq!(snap.shard_health, vec![true, false, true]);
        assert_eq!(snap.healthy_workers(), 2);
        assert!(snap.to_string().contains("2/3 shards healthy"));
        // Exits list is absent until shutdown fills it in.
        assert!(snap.worker_exits.is_empty());
        let mut snap = snap;
        snap.worker_exits = vec![WorkerExit::Clean, WorkerExit::Unhealthy, WorkerExit::Clean];
        assert!(snap.to_string().contains("w1:unhealthy"));
    }
}
