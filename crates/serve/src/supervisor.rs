//! Worker-shard supervision: panic containment, shard respawn, degraded
//! mode.
//!
//! Every worker runs its batch executions inside
//! [`catch_unwind`](std::panic::catch_unwind), with the requests' reply
//! channels held *outside* the unwind boundary — a panicking execution can
//! therefore never strand a [`Ticket`](crate::Ticket). After a caught
//! panic the supervisor walks the shard's [`FaultDomain`] ladder — rebuild
//! the execution backend (simulator state mid-panic is unspecified) under
//! the restart budget, after a decorrelated-jitter backoff. A shard that
//! exhausts its budget is retired: the healthy-shard count (kept under the
//! queue lock, so admission control sees it consistently) drops, and at
//! zero healthy shards the queue is drained with
//! [`ServeError::Degraded`] — nothing would ever run those requests.
//!
//! Lock poisoning is recovered everywhere ([`PoisonError::into_inner`]):
//! the queue's invariants are maintained by the panicking thread *before*
//! any panic can propagate (executions never run under the queue lock), so
//! the poisoned state is safe to adopt.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, MutexGuard, PoisonError, RwLockReadGuard};
use std::time::Instant;

use npcgra_nn::{ConvKind, ConvLayer, Tensor};
use npcgra_sim::{
    run_standard_via_im2col, BackendTier, CompiledLayer, ExecutionBackend, LayerReport, Machine, MappingKind, SimCause, SimError,
};

use crate::batch;
use crate::config::CrossCheckCorruption;
use crate::domain::{cycle_budget, panic_message, FaultDomain, Rebuilt};
use crate::error::{RetryClass, ServeError};
use crate::retry;
use crate::server::{next_work, settle, ModelEntry, ModelId, Pending, QueueState, Shared};
use crate::stats::WorkerExit;

/// Lock the shared queue, adopting (not propagating) poisoned state.
pub(crate) fn lock_queue(shared: &Shared) -> MutexGuard<'_, QueueState> {
    shared.queue.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-lock the model registry, adopting poisoned state.
pub(crate) fn read_models(shared: &Shared) -> RwLockReadGuard<'_, Vec<ModelEntry>> {
    shared.models.read().unwrap_or_else(PoisonError::into_inner)
}

/// One worker's supervised execution state: its fault domain and the
/// armed chaos triggers.
pub(crate) struct Shard {
    pub(crate) worker: usize,
    /// The tiered execution backend — the cycle-accurate [`Machine`] or the
    /// functional fast tier, per [`ServeConfig::backend_tier`](crate::ServeConfig)
    /// — and its restart ladder, without spares.
    domain: FaultDomain,
    /// The most recent clean fast-tier batch, held for the periodic
    /// cycle-accurate cross-check replay (fast tier only).
    last_fast_sample: Option<FastSample>,
    /// One-shot chaos trigger: panic inside the next supervised execution.
    panic_armed: bool,
    /// The shard's canary self-test, when `canary_interval > 0`.
    canary: Option<CanaryProbe>,
    /// Consecutive canary failures; two retire the shard (one may be a
    /// transient fault that an immediate re-probe would clear).
    canary_strikes: u32,
    /// Cleared when the restart budget runs out; the worker loop exits.
    pub(crate) alive: bool,
}

/// A small golden layer with precomputed reference outputs, run
/// periodically on the shard's own machine to catch *sticky* corruption
/// (a machine that keeps producing wrong words) that per-request retry
/// cannot heal.
struct CanaryProbe {
    compiled: CompiledLayer,
    ifm: Tensor,
    weights: Tensor,
    golden: Tensor,
}

/// One successful fast-tier batch, captured for the periodic golden
/// cross-check: the exact inputs that ran, the outputs the fast tier
/// produced, and the cycles it charged. Only batches whose run injected no
/// chaos faults are recorded — replaying a fault-bearing batch on a clean
/// machine would quarantine a healthy shard for chaos the operator asked
/// for.
struct FastSample {
    compiled: Arc<CompiledLayer>,
    ifm: Tensor,
    weights: Tensor,
    ofm: Tensor,
    cycles: u64,
}

impl CanaryProbe {
    fn build(shared: &Shared) -> Option<CanaryProbe> {
        let layer = ConvLayer::pointwise("canary.pw", 4, 4, 2, 2);
        let compiled = CompiledLayer::compile(&layer, &shared.config.spec, MappingKind::Auto).ok()?;
        let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 0xCA_11A5);
        let weights = layer.random_weights(0xCA_11A6);
        let golden = npcgra_nn::reference::run_layer(&layer, &ifm, &weights).ok()?;
        Some(CanaryProbe {
            compiled,
            ifm,
            weights,
            golden,
        })
    }
}

impl Shard {
    pub(crate) fn new(shared: &Shared, worker: usize) -> Self {
        Shard {
            worker,
            domain: FaultDomain::new(&shared.config, worker, 0),
            last_fast_sample: None,
            panic_armed: shared.config.chaos.panic_on_first_batch == Some(worker),
            canary: (shared.config.canary_interval > 0)
                .then(|| CanaryProbe::build(shared))
                .flatten(),
            canary_strikes: 0,
            alive: true,
        }
    }

    /// Run the canary self-test on this shard's backend: any wrong word,
    /// error or panic is a strike; two consecutive strikes retire the
    /// shard ([`WorkerExit::Unhealthy`]).
    fn run_canary(&mut self, shared: &Shared) {
        let Some(probe) = &self.canary else { return };
        shared.stats.canary_runs.fetch_add(1, Ordering::Relaxed);
        let backend = self.domain.backend();
        // The probe measures the backend, not the last batch's liveness
        // leftovers: a stale cancelled token must not fail it.
        backend.set_cancel_token(None);
        backend.set_cycle_budget(None);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            backend.run_layer(&probe.compiled, &probe.ifm, &probe.weights)
        }));
        let passed = matches!(outcome, Ok(Ok((ofm, _))) if ofm == probe.golden);
        if passed {
            self.canary_strikes = 0;
            return;
        }
        shared.stats.canary_failed.fetch_add(1, Ordering::Relaxed);
        self.canary_strikes += 1;
        if self.canary_strikes >= 2 {
            self.alive = false;
            mark_shard_dead(shared, self.worker);
        }
    }

    /// Replay the shard's most recent clean fast-tier batch on a scratch
    /// cycle-accurate machine (no fault plan, default integrity — the
    /// golden reference, not the chaos subject). ANY divergence — a single
    /// output bit or one charged cycle — means the fast tier mis-executed
    /// or mis-charged that batch, and the shard is quarantined on the
    /// spot: unlike a canary strike there is no benign explanation, so no
    /// second strike is granted.
    fn run_cross_check(&mut self, shared: &Shared) {
        let Some(sample) = self.last_fast_sample.take() else { return };
        shared.stats.cross_checks.fetch_add(1, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut golden = Machine::new(&shared.config.spec);
            sample.compiled.run_on(&mut golden, &sample.ifm, &sample.weights)
        }));
        let agrees = matches!(
            &outcome,
            Ok(Ok((ofm, report))) if *ofm == sample.ofm && report.cycles == sample.cycles
        );
        if agrees {
            return;
        }
        shared.stats.cross_check_failed.fetch_add(1, Ordering::Relaxed);
        self.alive = false;
        mark_shard_dead(shared, self.worker);
    }

    /// Execute one request group under supervision. A caught panic is
    /// converted to [`ServeError::WorkerPanic`] after the shard has been
    /// restarted (or retired, if its budget ran out) — the caller checks
    /// [`Shard::alive`] before dispatching more work.
    pub(crate) fn execute(
        &mut self,
        shared: &Shared,
        layer: &ConvLayer,
        weights: &Tensor,
        group: &[Pending],
    ) -> Result<(Vec<Tensor>, LayerReport), ServeError> {
        if let Some(poison) = shared.config.chaos.poison_value {
            if group.iter().any(|p| p.input.get(0, 0, 0) == poison) {
                return Err(poison_error());
            }
        }
        let chaos_panic = self.panic_armed;
        // Disarm before entering the unwind region: the retried batch must
        // succeed, proving the restarted shard serves again.
        self.panic_armed = false;
        let worker = self.worker;
        let backend = self.domain.backend();
        let sample_slot = &mut self.last_fast_sample;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            assert!(!chaos_panic, "chaos: injected worker panic");
            run_group(shared, worker, backend, sample_slot, layer, weights, group)
        }));
        match outcome {
            Ok(result) => {
                if result
                    .as_ref()
                    .is_err_and(|e| RetryClass::of(e) == RetryClass::RebuildAndRetry)
                {
                    // The shard itself is suspect (the watchdog cancelled a
                    // stuck run, or it blew its cycle budget): a wedged
                    // simulator's state is as unspecified as a panicked
                    // one's, so the shard walks the same restart-budget
                    // ladder. (Caught panics arrive on the `Err` arm below,
                    // so rebuild-class errors here are always preemptions.)
                    self.note_preemption(shared);
                }
                result
            }
            Err(payload) => {
                let message = panic_message(&payload);
                self.note_panic(shared);
                Err(ServeError::WorkerPanic { message })
            }
        }
    }

    /// Account a caught panic: restart the shard (rebuild the machine,
    /// jittered backoff) while budget remains, retire it otherwise.
    fn note_panic(&mut self, shared: &Shared) {
        shared.stats.panics_caught.fetch_add(1, Ordering::Relaxed);
        self.restart_or_retire(shared);
    }

    /// Account a liveness preemption: count it and walk the same restart
    /// ladder as a panic.
    fn note_preemption(&mut self, shared: &Shared) {
        shared.stats.watchdog_preemptions.fetch_add(1, Ordering::Relaxed);
        self.restart_or_retire(shared);
    }

    /// Charge one restart: walk the domain's ladder (rebuild after a
    /// decorrelated-jitter backoff while budget remains), retire the shard
    /// when it is exhausted.
    fn restart_or_retire(&mut self, shared: &Shared) {
        if self.domain.rebuild(&shared.config) == Rebuilt::Exhausted {
            self.alive = false;
            mark_shard_dead(shared, self.worker);
            return;
        }
        shared.stats.restarts.fetch_add(1, Ordering::Relaxed);
        // The captured fast sample predates the restart; drop it rather
        // than judge the fresh backend by its predecessor's work.
        self.last_fast_sample = None;
    }
}

/// The synthetic failure a poison request triggers (chaos only): shaped
/// like a mapper rejection so it flows the same retry/bisect path a real
/// data-dependent failure would.
fn poison_error() -> ServeError {
    ServeError::Sim(SimError {
        block: "chaos.poison".to_string(),
        tile: 0,
        cycle: 0,
        cause: SimCause::Map("chaos: poison request sentinel in batch".to_string()),
    })
}

/// Retire a shard: flip its health flag, decrement the healthy count, and
/// — when no healthy shard remains — drain the queue with
/// [`ServeError::Degraded`], because nothing will ever run those requests.
pub(crate) fn mark_shard_dead(shared: &Shared, worker: usize) {
    shared.stats.mark_shard_dead(worker);
    let mut q = lock_queue(shared);
    q.healthy = q.healthy.saturating_sub(1);
    if q.healthy == 0 {
        shed_degraded(shared, q.drain_all());
    }
    drop(q);
    shared.ready.notify_all();
}

/// Fail requests no shard is left to run, under the queue lock.
fn shed_degraded(shared: &Shared, pendings: Vec<Pending>) {
    let workers = shared.config.workers;
    for p in pendings {
        shared.stats.degraded_sheds.fetch_add(1, Ordering::Relaxed);
        settle(shared, p.idem_key, p.reply, Err(ServeError::Degraded { healthy: 0, workers }));
    }
}

/// Hand work a dying shard could not finish back to the surviving shards,
/// or fail it with [`ServeError::Degraded`] when none survive. Attempt
/// counts ride along, so the per-request retry cap holds across shards.
pub(crate) fn requeue_or_fail(shared: &Shared, model: ModelId, pendings: Vec<Pending>) {
    let mut q = lock_queue(shared);
    if q.healthy == 0 {
        return shed_degraded(shared, pendings);
    }
    for p in pendings.into_iter().rev() {
        let c = p.class.index();
        q.queues[model.0][c].push_front(p);
        q.class_totals[c] += 1;
        q.total += 1;
    }
    drop(q);
    shared.ready.notify_all();
}

/// Run one request group on the shard's backend: solo path per request
/// when the group has one member (or the layer cannot batch — every
/// standard conv), the coalesced batched path otherwise. This is the body
/// the supervisor wraps in `catch_unwind`.
///
/// Standard convolutions lower through [`run_standard_via_im2col`], which
/// owns its own cycle-accurate machine — they stay on the golden tier
/// regardless of `backend_tier` (they cannot compile to a `CompiledLayer`,
/// so the fast tier has no schedule to replay).
fn run_group(
    shared: &Shared,
    worker: usize,
    backend: &mut dyn ExecutionBackend,
    sample_slot: &mut Option<FastSample>,
    layer: &ConvLayer,
    weights: &Tensor,
    group: &[Pending],
) -> Result<(Vec<Tensor>, LayerReport), ServeError> {
    let spec = &shared.config.spec;
    if group.len() == 1 || !batch::batchable(layer) {
        let mut outputs = Vec::with_capacity(group.len());
        let mut last_report: Option<LayerReport> = None;
        let (mut checked, mut failed, mut recovered) = (0u64, 0u64, 0u64);
        for p in group {
            let (ofm, report) = if layer.kind() == ConvKind::Standard {
                run_standard_via_im2col(layer, &p.input, weights, spec)?
            } else {
                let compiled = shared.cache.get_or_compile(layer, spec, MappingKind::Auto)?;
                run_with_liveness(shared, worker, backend, sample_slot, &compiled, &p.input, weights)?
            };
            outputs.push(ofm);
            checked += report.integrity_checked;
            failed += report.integrity_failed;
            recovered += report.integrity_recovered;
            last_report = Some(report);
        }
        // The group shares one report; fold the per-request integrity
        // counters into it so none are lost.
        let mut report = last_report.expect("at least one request");
        report.integrity_checked = checked;
        report.integrity_failed = failed;
        report.integrity_recovered = recovered;
        Ok((outputs, report))
    } else {
        let b = group.len();
        let big = batch::combined_layer(layer, b);
        let inputs: Vec<&Tensor> = group.iter().map(|p| &p.input).collect();
        let big_ifm = batch::combined_ifm(layer, &inputs);
        let big_w = batch::combined_weights(layer, weights, b);
        shared
            .cache
            .get_or_compile(&big, spec, preferred_kind(&big))
            .or_else(|_| shared.cache.get_or_compile(&big, spec, MappingKind::Auto))
            .map_err(ServeError::from)
            .and_then(|compiled| run_with_liveness(shared, worker, backend, sample_slot, &compiled, &big_ifm, &big_w))
            .map(|(ofm, report)| (batch::split_ofm(layer, b, &ofm), report))
    }
}

/// Run one compiled program under the liveness layer: the per-block cycle
/// budget on the backend, the watchdog's wall deadline armed (and its
/// cancel token installed) when the backend's *own tier* is calibrated
/// (the fast tier burns wall time orders of magnitude slower per charged
/// cycle, so tiers never share an ns-per-cycle estimate), and — on success
/// — the run's timing folded into that tier's calibration.
///
/// On the fast tier, a successful run that injected no chaos faults is
/// captured into `sample_slot` (first one per cross-check window) for the
/// periodic golden replay.
fn run_with_liveness(
    shared: &Shared,
    worker: usize,
    backend: &mut dyn ExecutionBackend,
    sample_slot: &mut Option<FastSample>,
    compiled: &Arc<CompiledLayer>,
    ifm: &Tensor,
    weights: &Tensor,
) -> Result<(Tensor, LayerReport), ServeError> {
    let cfg = &shared.config;
    let tier = backend.tier();
    let block_cycles = compiled.block_compute_cycles();
    let predicted = block_cycles.saturating_mul(compiled.num_blocks() as u64);
    let calibration = &shared.stats.ns_per_cycle[tier.index()];
    backend.set_cycle_budget(cycle_budget(block_cycles, cfg.cycle_budget));
    // Unarmed, the previous run's (possibly cancelled) token is cleared.
    let token = shared.watchdog.arm(worker, predicted, calibration.get(), cfg.watchdog_slack);
    let armed = token.is_some();
    backend.set_cancel_token(token);
    let faults_before = backend.faults_injected();
    let temporal_before = backend.temporal_injected();
    let started = Instant::now();
    let result = backend.run_layer(compiled, ifm, weights);
    let wall = started.elapsed();
    if armed {
        shared.watchdog.disarm(worker);
    }
    if let Ok((ofm, report)) = &result {
        calibration.observe(predicted, wall);
        shared.stats.observe_cycles_charged(tier, report.cycles);
        if tier == BackendTier::Fast
            && cfg.cross_check_interval > 0
            && sample_slot.is_none()
            && backend.faults_injected() == faults_before
            && backend.temporal_injected() == temporal_before
        {
            let mut sample = FastSample {
                compiled: Arc::clone(compiled),
                ifm: ifm.clone(),
                weights: weights.clone(),
                ofm: ofm.clone(),
                cycles: report.cycles,
            };
            // Chaos: corrupt one side of the captured sample so the
            // cross-check replay diverges and must quarantine the shard.
            // The *reply* stays untouched — only the audit record lies,
            // which is exactly the failure mode the cross-check exists to
            // catch (a fast tier that mis-reports what it executed).
            match cfg.chaos.cross_check_corrupt {
                Some(CrossCheckCorruption::OutputBit) => {
                    if let Some(w) = sample.ofm.as_mut_slice().first_mut() {
                        *w ^= 1;
                    }
                }
                Some(CrossCheckCorruption::ChargedCycles) => {
                    sample.cycles = sample.cycles.wrapping_add(1);
                }
                None => {}
            }
            *sample_slot = Some(sample);
        }
    }
    result.map_err(ServeError::from)
}

/// The batched mapping to prefer for a combined layer: the §5.4
/// channel-batched DWC when it applies, the paper's per-kind best otherwise.
fn preferred_kind(layer: &ConvLayer) -> MappingKind {
    if layer.kind() == ConvKind::Depthwise && layer.s() == 1 && layer.k() * layer.k() <= npcgra_arch::grf::GRF_WORDS {
        MappingKind::BatchedDwcS1
    } else {
        MappingKind::Auto
    }
}

/// The worker-thread body: pull batches, run them through the retry
/// policy, and report how the thread ended. Exits `Clean` when the queue
/// drains for shutdown, `Unhealthy` when the shard's restart budget runs out mid-service or the
/// canary self-test retires it.
pub(crate) fn run_worker(shared: &Arc<Shared>, worker: usize) -> WorkerExit {
    let mut shard = Shard::new(shared, worker);
    let canary_interval = shared.config.canary_interval;
    // The golden cross-check only exists on the fast tier: the cycle tier
    // IS the golden reference, replaying it against itself proves nothing.
    let cross_interval = if shared.config.backend_tier == BackendTier::Fast {
        shared.config.cross_check_interval
    } else {
        0
    };
    let mut batches = 0u64;
    while shard.alive {
        let Some((model, pendings, slept)) = next_work(shared) else {
            return WorkerExit::Clean;
        };
        let busy_start = Instant::now();
        retry::process(shared, &mut shard, model, pendings);
        shared.stats.observe_worker_busy(worker, busy_start.elapsed());
        batches += 1;
        if canary_interval > 0 && batches.is_multiple_of(canary_interval) {
            shard.run_canary(shared);
        }
        if cross_interval > 0 && batches.is_multiple_of(cross_interval) {
            shard.run_cross_check(shared);
        }
        // A lightly loaded shard on the fast tier is microseconds of work
        // between sleeps, and a sleeper is woken on the core it last ran
        // on. Sharing that core with a busy thread, it is never seen
        // waiting when the load balancer looks, so it stays there and the
        // two are time-sliced at tick granularity (milliseconds of latency
        // for both). A shard that slept for this work yields once after
        // it: that leaves it queued behind the other thread, where the
        // balancer finds it and moves it to an idle core. Alone on its
        // core the call returns at once; a shard working through a backlog
        // never slept, and is busy enough to be seen without it.
        if slept {
            std::thread::yield_now();
        }
    }
    WorkerExit::Unhealthy
}
