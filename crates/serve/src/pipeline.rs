//! Whole-model pipeline serving with stage-level fault domains and
//! checkpointed failover.
//!
//! A [`CompiledModel`](npcgra_sim::CompiledModel) partitions a layer chain
//! into balanced stages; [`Pipeline`] gives each stage its own worker
//! thread owning its own execution backend — an independent **fault
//! domain**. An inference flows stage to stage as a [`StageJob`]; between
//! stages its activation is guarded by a [`tensor_checksum`] computed by
//! the producer and verified by the consumer (checksum forwarding), so a
//! corrupted handoff is caught *at the boundary it crossed*, not at the
//! final output.
//!
//! # Checkpoints and healing
//!
//! Every verified stage boundary (subject to
//! [`checkpoint_every`](crate::ServeConfig::checkpoint_every)) is
//! checkpointed — the activation tensor plus its checksum ride with the
//! job, so a checkpoint needs no global store and dies with its inference.
//! When a stage fails — a caught panic, an ABFT integrity trip, a
//! cycle-budget preemption (temporal wedge), or a handoff-checksum
//! mismatch — the job is **healed**: rolled back to its most recent
//! checkpoint at or before the failing stage and re-enqueued there.
//! Healing replays only the stages between the checkpoint and the failure
//! (`stage_replays` counts exactly which), never the whole inference.
//!
//! # Failover ladder
//!
//! Failures are classified by [`RetryClass`]: `Retry`-class failures heal
//! in place; `RebuildAndRetry`-class failures (panic, preemption) also walk
//! the stage's fault-domain ladder (DESIGN §10.1) — restarts under
//! [`restart_budget`](crate::ServeConfig::restart_budget), then **failover**
//! to [`stage_spares`](crate::ServeConfig::stage_spares) spare shards — and
//! only with every spare consumed does the stage go dead. A dead stage
//! sheds *whole-model* traffic ([`ServeError::Degraded`], also for a job
//! forwarded or healed onto it) — in a mixed deployment the single-layer
//! [`Server`](crate::Server) keeps serving, honoring the brownout rule of
//! shedding pipeline traffic before single-layer traffic.
//!
//! # Overload and liveness
//!
//! Whole-model jobs ride the same hardening as single-layer traffic:
//!
//! * **Deadline propagation** — a job's wall deadline
//!   ([`Pipeline::submit_with_priority`]) is split across stages
//!   proportionally to each stage's [`StagePlan`](npcgra_sim::StagePlan)
//!   predicted cycles plus its DMA handoff cycles. Entry to stage `s` is
//!   shed ([`ServeError::DeadlineExceeded`]) once the wall clock passes
//!   `deadline − budget × frac_after(s)` — the proportional share of the
//!   budget that stages *after* `s` still need — so an already-doomed job
//!   never burns downstream stages. Zero deadlines are rejected at submit,
//!   matching [`Server`](crate::Server) semantics.
//! * **Stage watchdogs** — each stage calibrates its own ns-per-cycle EWMA
//!   on healthy passes; with
//!   [`watchdog_slack`](crate::ServeConfig::watchdog_slack) armed, a
//!   stage pass runs under the watchdog's wall deadline (DESIGN §10.1);
//!   the typed [`ServeError::Preempted`] of a cancelled pass walks the same
//!   ladder as a caught panic, so a wedged stage cannot stall the pipeline.
//! * **Priority admission + brownout** — stage 0 holds one FIFO per
//!   [`Priority`] class, dequeued by stride WFQ
//!   ([`CLASS_WEIGHTS`]); a CoDel controller
//!   ([`overload.delay_target`](crate::OverloadConfig::delay_target))
//!   over *stage-queue* sojourn times climbs the
//!   [`BrownoutLevel`](crate::BrownoutLevel) ladder under standing delay,
//!   shedding best-effort first, then capping per-stage in-flight depth,
//!   then draining —
//!   lower-priority whole-model traffic degrades before any single-layer
//!   traffic is touched.
//!
//! These are the [`ServeConfig`] fields a [`Server`](crate::Server) reads
//! for the same machinery — one config surface, handed to whichever
//! lifecycle is started — and every one defaults off: untouched configs
//! serve exactly as before these layers existed. The only pipeline-only
//! overload knob is
//! [`stage_inflight_cap`](crate::ServeConfig::stage_inflight_cap).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use npcgra_nn::{Tensor, Word};
use npcgra_sim::{
    tensor_checksum, CheckKind, CompiledModel, Fault, FaultPlan, FaultSite, LayerReport, SimCause, SimError, TemporalFault,
    Violation,
};

use crate::config::{ServeConfig, StageFault};
use crate::domain::{cycle_budget, panic_message, FaultDomain, Rebuilt};
use crate::error::{RetryClass, ServeError};
use crate::overload::{brownout_step, LevelChange, OverloadController, Priority, WfqScheduler, CLASSES, CLASS_WEIGHTS};
use crate::server::{expected_weight_shape, reply_pair, Delivery, ReplySender, Response, Ticket};
use crate::stats::NsPerCycle;
use crate::watchdog::Watchdog;

/// When a wedge is chaos-injected but no cycle budget is configured (and
/// the stage watchdog is not armed), arm this fallback multiplier so the
/// wedge surfaces as a typed preemption instead of hanging the stage
/// forever.
const WEDGE_FALLBACK_BUDGET: f64 = 8.0;

/// One inference moving through the pipeline: the current activation, its
/// handoff checksum, the checkpoints it can heal from, and the per-layer
/// reports accumulated so far.
struct StageJob {
    /// Submit ordinal (0-based) — the deterministic chaos-trigger key.
    id: u64,
    activation: Tensor,
    /// Producer-computed checksum of `activation`, verified at stage entry.
    checksum: u64,
    /// `(boundary, activation, checksum)` triples, ascending by boundary.
    /// Boundary `b` is the input to stage `b`; boundary 0 is always present.
    checkpoints: Vec<(usize, Tensor, u64)>,
    /// Failed execution attempts (all stages); caps at `max_retries`.
    attempts: u32,
    /// Per-layer reports for stages completed so far (truncated on heal so
    /// replayed layers are not double-counted).
    reports: Vec<LayerReport>,
    /// DMA cycles charged for inter-stage handoffs (replays re-charge —
    /// a replayed stage really does re-forward its output).
    handoff_cycles: u64,
    enqueued: Instant,
    /// When the job entered its *current* stage queue — the CoDel sojourn
    /// sample taken at dequeue.
    stage_enqueued: Instant,
    /// Priority class (stage-0 WFQ dequeue and brownout shedding order).
    class: Priority,
    /// Absolute wall deadline for the final-stage reply (`None` = never
    /// expires).
    deadline: Option<Instant>,
    /// The original deadline budget, split across stages proportionally to
    /// predicted work for the boundary shed rule. Zero when no deadline.
    budget: Duration,
    reply: ReplySender,
}

/// Queue-side pipeline state, under one mutex with one condvar.
struct PipeState {
    /// Per-class FIFOs feeding stage 0, dequeued by stride WFQ.
    entry: Vec<VecDeque<StageJob>>,
    /// One FIFO of jobs awaiting each stage past the first (index 0 is
    /// kept for symmetry but stays empty — stage 0 pulls from `entry`).
    queues: Vec<VecDeque<StageJob>>,
    /// Stage-0 weighted-fair scheduler over the priority classes.
    wfq: WfqScheduler,
    /// CoDel controller over stage-queue sojourns; `None` = ladder off.
    controller: Option<OverloadController>,
    /// Accepting submits; cleared by [`Pipeline::shutdown`].
    open: bool,
    /// Jobs admitted but not yet concluded (replied or shed).
    inflight: usize,
    /// Stages that exhausted restarts *and* spares; flagged dead.
    dead: Vec<bool>,
    next_id: u64,
}

impl PipeState {
    fn backlogged(&self) -> [bool; CLASSES] {
        std::array::from_fn(|c| !self.entry[c].is_empty())
    }

    /// Jobs queued before stage `s` (stage 0 sums the per-class FIFOs).
    fn stage_depth(&self, s: usize) -> usize {
        if s == 0 {
            self.entry.iter().map(VecDeque::len).sum()
        } else {
            self.queues[s].len()
        }
    }

    /// The deepest stage queue — the bound the brownout in-flight cap
    /// enforces at admission.
    fn max_stage_depth(&self) -> usize {
        (0..self.queues.len()).map(|s| self.stage_depth(s)).max().unwrap_or(0)
    }

    /// The stage-0 dequeue: WFQ-pick among backlogged classes, charge the
    /// dispatch.
    fn pop_entry(&mut self) -> Option<StageJob> {
        let class = self.wfq.pick(self.backlogged())?;
        let job = self.entry[class.index()].pop_front()?;
        self.wfq.charge(class, 1);
        Some(job)
    }

    /// Enqueue a job for stage 0, activating its class in the WFQ when the
    /// class was idle (so it cannot bank credit). Healed jobs re-enter at
    /// the front so recovery preempts fresh work.
    fn push_entry(&mut self, job: StageJob, front: bool) {
        let c = job.class.index();
        if self.entry[c].is_empty() {
            let backlogged = self.backlogged();
            self.wfq.activate(job.class, backlogged);
        }
        if front {
            self.entry[c].push_front(job);
        } else {
            self.entry[c].push_back(job);
        }
    }

    /// The oldest stage-queue head's residence start across the whole
    /// pipeline — the CoDel controller's standing-delay signal. It must
    /// span *every* stage queue, not just entry: when a downstream stage
    /// is the bottleneck the entry queue drains instantly, and a stage-0
    /// signal alone would read a drowning pipeline as healthy.
    fn oldest_head(&self) -> Option<Instant> {
        self.entry
            .iter()
            .chain(self.queues.iter())
            .filter_map(|q| q.front())
            .map(|j| j.stage_enqueued)
            .min()
    }
}

/// Pipeline counters (all relaxed atomics; exactness is per-counter, not
/// cross-counter).
#[derive(Default)]
struct PipeStats {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    checkpoints_stored: AtomicU64,
    checkpoint_restores: AtomicU64,
    handoff_corruptions: AtomicU64,
    integrity_failures: AtomicU64,
    panics_caught: AtomicU64,
    preemptions: AtomicU64,
    cycles_charged: AtomicU64,
    handoff_cycles: AtomicU64,
    rejected_deadline: AtomicU64,
    deadline_sheds: AtomicU64,
    late_replies: AtomicU64,
    watchdog_preemptions: AtomicU64,
    brownout_escalations: AtomicU64,
    brownout_deescalations: AtomicU64,
    admitted_by_class: Vec<AtomicU64>,
    overload_sheds: Vec<AtomicU64>,
    stage_replays: Vec<AtomicU64>,
    stage_restarts: Vec<AtomicU64>,
    stage_failovers: Vec<AtomicU64>,
}

impl PipeStats {
    fn new(stages: usize) -> Self {
        let zeros = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        PipeStats {
            admitted_by_class: zeros(CLASSES),
            overload_sheds: zeros(CLASSES),
            stage_replays: zeros(stages),
            stage_restarts: zeros(stages),
            stage_failovers: zeros(stages),
            ..PipeStats::default()
        }
    }

    fn snapshot(&self) -> PipelineStatsSnapshot {
        let vec = |v: &Vec<AtomicU64>| v.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        PipelineStatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            checkpoints_stored: self.checkpoints_stored.load(Ordering::Relaxed),
            checkpoint_restores: self.checkpoint_restores.load(Ordering::Relaxed),
            handoff_corruptions: self.handoff_corruptions.load(Ordering::Relaxed),
            integrity_failures: self.integrity_failures.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            preemptions: self.preemptions.load(Ordering::Relaxed),
            cycles_charged: self.cycles_charged.load(Ordering::Relaxed),
            handoff_cycles: self.handoff_cycles.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            deadline_sheds: self.deadline_sheds.load(Ordering::Relaxed),
            late_replies: self.late_replies.load(Ordering::Relaxed),
            watchdog_preemptions: self.watchdog_preemptions.load(Ordering::Relaxed),
            brownout_escalations: self.brownout_escalations.load(Ordering::Relaxed),
            brownout_deescalations: self.brownout_deescalations.load(Ordering::Relaxed),
            admitted_by_class: vec(&self.admitted_by_class),
            overload_sheds: vec(&self.overload_sheds),
            stage_replays: vec(&self.stage_replays),
            stage_restarts: vec(&self.stage_restarts),
            stage_failovers: vec(&self.stage_failovers),
        }
    }
}

/// A point-in-time copy of the pipeline's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineStatsSnapshot {
    /// Inferences admitted.
    pub submitted: u64,
    /// Inferences that completed with an output.
    pub completed: u64,
    /// Inferences that failed terminally (quarantine, final errors).
    pub failed: u64,
    /// Inferences shed by a dead stage ([`ServeError::Degraded`]).
    pub shed: u64,
    /// Checkpoints stored at verified stage boundaries (boundary 0 included).
    pub checkpoints_stored: u64,
    /// Heals: restorations of a job to its last checkpoint.
    pub checkpoint_restores: u64,
    /// Inter-stage activation checksum mismatches caught at stage entry.
    pub handoff_corruptions: u64,
    /// ABFT integrity trips inside stage execution.
    pub integrity_failures: u64,
    /// Stage-shard panics caught and contained.
    pub panics_caught: u64,
    /// Cycle-budget preemptions (wedged or runaway stage runs).
    pub preemptions: u64,
    /// Simulated cycles charged across completed inferences (handoffs
    /// included).
    pub cycles_charged: u64,
    /// DMA cycles charged for inter-stage activation handoffs.
    pub handoff_cycles: u64,
    /// Jobs rejected at submit for a zero (already-expired) deadline.
    pub rejected_deadline: u64,
    /// Jobs shed at a stage boundary because their proportional deadline
    /// share was already spent ([`ServeError::DeadlineExceeded`]).
    pub deadline_sheds: u64,
    /// Replies delivered after their ticket was dropped (tombstoned slots;
    /// the reply is dropped and counted instead of leaking).
    pub late_replies: u64,
    /// Stage-watchdog firings: wall-deadline preemptions of in-hand stage
    /// runs (a subset of `preemptions`, which also counts cycle-budget
    /// trips).
    pub watchdog_preemptions: u64,
    /// Brownout-ladder escalations (one per overloaded CoDel window).
    pub brownout_escalations: u64,
    /// Brownout-ladder de-escalations (one per quiet CoDel window).
    pub brownout_deescalations: u64,
    /// Jobs admitted per priority class (`[interactive, batch,
    /// best-effort]`).
    pub admitted_by_class: Vec<u64>,
    /// Jobs shed at admission by the brownout ladder, per class.
    pub overload_sheds: Vec<u64>,
    /// Per-stage count of replays: how many times each stage re-executed a
    /// healed job. A heal from the checkpoint at boundary `b` after a
    /// failure at stage `s` increments exactly `b..=s` — the proof that
    /// healing replays only from the last checkpoint.
    pub stage_replays: Vec<u64>,
    /// Per-stage backend rebuilds charged to the restart budget.
    pub stage_restarts: Vec<u64>,
    /// Per-stage failovers to a spare shard (restart budget exhausted).
    pub stage_failovers: Vec<u64>,
}

impl PipelineStatsSnapshot {
    /// Total failovers across stages.
    #[must_use]
    pub fn total_failovers(&self) -> u64 {
        self.stage_failovers.iter().sum()
    }

    /// Total replays across stages.
    #[must_use]
    pub fn total_replays(&self) -> u64 {
        self.stage_replays.iter().sum()
    }
}

impl std::fmt::Display for PipelineStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "pipeline: {} submitted, {} completed, {} failed, {} shed",
            self.submitted, self.completed, self.failed, self.shed
        )?;
        writeln!(
            f,
            "  checkpoints: {} stored, {} restores; handoff corruptions {}; integrity trips {}",
            self.checkpoints_stored, self.checkpoint_restores, self.handoff_corruptions, self.integrity_failures
        )?;
        writeln!(
            f,
            "  faults: {} panics caught, {} preemptions ({} by watchdog); cycles {} ({} handoff)",
            self.panics_caught, self.preemptions, self.watchdog_preemptions, self.cycles_charged, self.handoff_cycles
        )?;
        writeln!(
            f,
            "  admission: {:?} admitted by class, {:?} overload sheds, {} deadline-rejected",
            self.admitted_by_class, self.overload_sheds, self.rejected_deadline
        )?;
        writeln!(
            f,
            "  deadlines: {} boundary sheds; late replies {}; brownout {} up / {} down",
            self.deadline_sheds, self.late_replies, self.brownout_escalations, self.brownout_deescalations
        )?;
        writeln!(f, "  replays/stage:   {:?}", self.stage_replays)?;
        writeln!(f, "  restarts/stage:  {:?}", self.stage_restarts)?;
        write!(f, "  failovers/stage: {:?}", self.stage_failovers)
    }
}

/// Everything the stage workers share.
struct PipeShared {
    config: ServeConfig,
    model: CompiledModel,
    weights: Vec<Tensor>,
    state: Mutex<PipeState>,
    ready: Condvar,
    stats: PipeStats,
    /// One arming slot per stage (a stage runs one job at a time).
    watchdog: Arc<Watchdog>,
    /// `frac_after[s]`: the fraction of the whole model's predicted work
    /// (stage cycles + handoff cycles) that lies in stages *after* `s`.
    /// `frac_after[last] == 0`. Precomputed once — the deadline split.
    frac_after: Vec<f64>,
    /// Per-stage watchdog calibration, fed by the stage's own worker.
    ns_per_cycle: Vec<NsPerCycle>,
}

impl PipeShared {
    fn lock(&self) -> MutexGuard<'_, PipeState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reply, count the outcome (late replies included), and release the
    /// job's inflight slot.
    fn conclude(&self, reply: ReplySender, result: Result<Response, ServeError>) {
        match &result {
            Ok(_) => self.stats.completed.fetch_add(1, Ordering::Relaxed),
            Err(ServeError::Degraded { .. } | ServeError::DeadlineExceeded) => self.stats.shed.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.stats.failed.fetch_add(1, Ordering::Relaxed),
        };
        if reply.send(result) == Delivery::Abandoned {
            // The ticket was dropped before the reply: tombstoned slot,
            // counted instead of leaking (the server's accounting, ported).
            self.stats.late_replies.fetch_add(1, Ordering::Relaxed);
        }
        let mut st = self.lock();
        st.inflight -= 1;
        drop(st);
        self.ready.notify_all();
    }

    /// Queue `job` for stage `to` (at the front when healing) — or shed it
    /// when that stage has died: no worker will ever pop its queue, so the
    /// job would strand and `inflight` never drain.
    fn enqueue(&self, mut job: StageJob, to: usize, front: bool) {
        let mut st = self.lock();
        if st.dead[to] {
            let e = self.degraded(&st.dead);
            drop(st);
            return self.conclude(job.reply, Err(e));
        }
        job.stage_enqueued = Instant::now();
        match (to, front) {
            (0, _) => st.push_entry(job, front),
            (_, true) => st.queues[to].push_front(job),
            (_, false) => st.queues[to].push_back(job),
        }
        drop(st);
        self.ready.notify_all();
    }

    fn degraded(&self, dead: &[bool]) -> ServeError {
        ServeError::Degraded {
            healthy: dead.iter().filter(|d| !**d).count(),
            workers: dead.len(),
        }
    }

    /// Count one CoDel ladder transition.
    fn apply_level_change(&self, change: LevelChange) {
        let counter = match change {
            LevelChange::Escalated(_) => &self.stats.brownout_escalations,
            LevelChange::Deescalated(_) => &self.stats.brownout_deescalations,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A whole-model serving pipeline: one supervised worker thread per stage
/// of a [`CompiledModel`], healing stage failures from per-job checkpoints
/// and failing stages over to spare shards.
///
/// ```
/// use npcgra_nn::{ConvLayer, Tensor};
/// use npcgra_serve::{Pipeline, ServeConfig};
/// use npcgra_sim::CompiledModel;
///
/// let layers = vec![
///     ConvLayer::depthwise("dw", 3, 8, 8, 3, 1, 1),
///     ConvLayer::pointwise("pw", 3, 4, 8, 8),
/// ];
/// let config = ServeConfig::default();
/// // The stage count is `compile`'s argument; the pipeline serves however
/// // many stages the compiled model has.
/// let model = CompiledModel::compile("demo", &layers, &config.spec, 2).unwrap();
/// let weights = layers.iter().map(|l| l.random_weights(7)).collect();
/// let pipe = Pipeline::start(config, model, weights).unwrap();
/// let ticket = pipe.submit(Tensor::random(3, 8, 8, 1)).unwrap();
/// assert_eq!(ticket.wait().unwrap().output.channels(), 4);
/// let stats = pipe.shutdown();
/// assert_eq!(stats.completed, 1);
/// ```
pub struct Pipeline {
    shared: Arc<PipeShared>,
    handles: Vec<JoinHandle<()>>,
}

impl Pipeline {
    /// Start one stage worker per stage of `model`.
    ///
    /// `weights` holds one tensor per model layer, in layer order.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShapeMismatch`] when `weights` disagrees with the
    /// model's layers (count or any per-layer weight shape).
    pub fn start(config: ServeConfig, model: CompiledModel, weights: Vec<Tensor>) -> Result<Pipeline, ServeError> {
        if weights.len() != model.num_layers() {
            return Err(ServeError::ShapeMismatch {
                expected: (model.num_layers(), 0, 0),
                got: (weights.len(), 0, 0),
            });
        }
        for (i, w) in weights.iter().enumerate() {
            let expected = expected_weight_shape(model.layer(i).layer());
            if w.shape() != expected {
                return Err(ServeError::ShapeMismatch {
                    expected,
                    got: w.shape(),
                });
            }
        }
        let stages = model.num_stages();
        // The deadline split: weight each stage by its predicted compute
        // plus its outbound handoff, then precompute the fraction of total
        // work remaining *after* each stage.
        let stage_work: Vec<u64> = (0..stages)
            .map(|s| model.stages()[s].predicted_cycles() + model.handoff_cycles(s))
            .collect();
        let total_work: u64 = stage_work.iter().sum();
        let frac_after: Vec<f64> = (0..stages)
            .map(|s| {
                if total_work == 0 {
                    0.0
                } else {
                    stage_work[s + 1..].iter().sum::<u64>() as f64 / total_work as f64
                }
            })
            .collect();
        let controller = config
            .overload
            .delay_target
            .map(|target| OverloadController::new(target, config.overload.delay_window, Instant::now()));
        let shared = Arc::new(PipeShared {
            stats: PipeStats::new(stages),
            state: Mutex::new(PipeState {
                entry: (0..CLASSES).map(|_| VecDeque::new()).collect(),
                queues: (0..stages).map(|_| VecDeque::new()).collect(),
                wfq: WfqScheduler::new(CLASS_WEIGHTS),
                controller,
                open: true,
                inflight: 0,
                dead: vec![false; stages],
                next_id: 0,
            }),
            ready: Condvar::new(),
            model,
            weights,
            watchdog: Watchdog::new(stages),
            frac_after,
            ns_per_cycle: (0..stages).map(|_| NsPerCycle::default()).collect(),
            config,
        });
        let handles = (0..stages)
            .map(|s| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    // The `npcgra-serve-` prefix keeps chaos-bench's panic
                    // silencer effective for injected stage kills.
                    .name(format!("npcgra-serve-pipe-{s}"))
                    .spawn(move || StageWorker::new(&shared, s).run())
                    .expect("spawn stage worker")
            })
            .collect();
        let fired = Arc::clone(&shared);
        let slack = shared.config.watchdog_slack;
        shared.watchdog.spawn("npcgra-serve-pipe-watchdog", slack, move |_stage| {
            fired.stats.watchdog_preemptions.fetch_add(1, Ordering::Relaxed);
        });
        Ok(Pipeline { shared, handles })
    }

    /// Submit one inference; the [`Ticket`] redeems the final-stage output.
    ///
    /// Interactive class, never expires — the same convenience contract as
    /// [`Server::submit`](crate::Server::submit).
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] after [`Pipeline::shutdown`] began,
    /// [`ServeError::Degraded`] while any stage is dead (whole-model
    /// traffic sheds first), [`ServeError::Overloaded`] when the brownout
    /// ladder sheds this class, [`ServeError::QueueFull`] at capacity,
    /// [`ServeError::DeadlineExceeded`] for a zero deadline, and
    /// [`ServeError::ShapeMismatch`] for a wrong input shape.
    pub fn submit(&self, input: Tensor) -> Result<Ticket, ServeError> {
        self.submit_with_priority(input, None, Priority::Interactive)
    }

    /// [`Pipeline::submit`] with an explicit wall deadline for the final
    /// reply (`None` = never expires).
    pub fn submit_with_deadline(&self, input: Tensor, deadline: Option<Duration>) -> Result<Ticket, ServeError> {
        self.submit_with_priority(input, deadline, Priority::Interactive)
    }

    /// The full-control submit: explicit deadline and priority class.
    ///
    /// The deadline is split across stages proportionally to predicted
    /// work; a job that can no longer make it is shed at the next stage
    /// boundary instead of burning downstream stages. Zero (already
    /// expired) deadlines are rejected here, before queueing, matching
    /// [`Server`](crate::Server) semantics.
    ///
    /// # Errors
    ///
    /// As [`Pipeline::submit`].
    pub fn submit_with_priority(&self, input: Tensor, deadline: Option<Duration>, class: Priority) -> Result<Ticket, ServeError> {
        let shared = &self.shared;
        let expected = shared.model.input_shape();
        if input.shape() != expected {
            return Err(ServeError::ShapeMismatch {
                expected,
                got: input.shape(),
            });
        }
        // An already-expired deadline is rejected before it queues: the
        // caller finds out now, not after the pipeline burned stages on it.
        if deadline.is_some_and(|d| d.is_zero()) {
            shared.stats.rejected_deadline.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::DeadlineExceeded);
        }
        let now = Instant::now();
        let mut st = shared.lock();
        if !st.open {
            return Err(ServeError::ShuttingDown);
        }
        if st.dead.iter().any(|d| *d) {
            let e = shared.degraded(&st.dead);
            drop(st);
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        // Feed the CoDel controller the pipeline's standing delay (the
        // oldest stage-queue head's residence time, any stage), or just
        // let its window tick over. Admission is the only sampling site:
        // per-stage dequeue sojourns would poison the window minimum,
        // because every stage that is *not* the bottleneck pops its jobs
        // near-instantly.
        let oldest = st.oldest_head();
        let level = brownout_step(st.controller.as_mut(), now, oldest, |c| shared.apply_level_change(c));
        // NOTE: `level.rejects_uncached()` is inert here by construction —
        // the pipeline serves exactly one model, compiled at start, so
        // every submit is a cache hit. The in-flight cap is the pipeline's
        // analogue: under deep brownout, bound the deepest stage queue.
        if level.sheds(class) || (level.caps_inflight() && st.max_stage_depth() >= self.stage_inflight_cap()) {
            drop(st);
            shared.stats.overload_sheds[class.index()].fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded { level, class });
        }
        if st.inflight >= shared.config.queue_capacity {
            return Err(ServeError::QueueFull {
                capacity: shared.config.queue_capacity,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        let checksum = tensor_checksum(&input);
        let (reply, ticket) = reply_pair();
        st.push_entry(
            StageJob {
                id,
                checkpoints: vec![(0, input.clone(), checksum)],
                activation: input,
                checksum,
                attempts: 0,
                reports: Vec::new(),
                handoff_cycles: 0,
                enqueued: now,
                stage_enqueued: now,
                class,
                deadline: deadline.map(|d| now + d),
                budget: deadline.unwrap_or(Duration::ZERO),
                reply,
            },
            false,
        );
        shared.stats.checkpoints_stored.fetch_add(1, Ordering::Relaxed);
        shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        shared.stats.admitted_by_class[class.index()].fetch_add(1, Ordering::Relaxed);
        st.inflight += 1;
        drop(st);
        shared.ready.notify_all();
        Ok(ticket)
    }

    /// The brownout in-flight cap: the configured
    /// [`stage_inflight_cap`](crate::ServeConfig::stage_inflight_cap), or a
    /// derived per-stage share of the queue capacity when left at 0.
    fn stage_inflight_cap(&self) -> usize {
        let cfg = &self.shared.config;
        if cfg.stage_inflight_cap > 0 {
            cfg.stage_inflight_cap
        } else {
            (cfg.queue_capacity / (2 * self.shared.model.num_stages())).max(1)
        }
    }

    /// A point-in-time copy of the pipeline's counters.
    #[must_use]
    pub fn stats(&self) -> PipelineStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Stop admitting, drain every in-flight inference to a reply, join the
    /// stage workers and return the final counters.
    #[must_use]
    pub fn shutdown(mut self) -> PipelineStatsSnapshot {
        self.close_and_join();
        self.shared.stats.snapshot()
    }

    fn close_and_join(&mut self) {
        {
            let mut st = self.shared.lock();
            st.open = false;
        }
        self.shared.ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // Stage workers are drained; nothing is (or can become) armed.
        self.shared.watchdog.shutdown();
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        // A dropped pipeline still drains: every admitted job gets its
        // reply (or its shed) before the threads are released.
        self.close_and_join();
    }
}

/// One stage's worker: its fault domain (backend, restart→spare ladder)
/// and one-shot chaos trigger latches.
struct StageWorker<'a> {
    shared: &'a PipeShared,
    stage: usize,
    domain: FaultDomain,
    kill_fired: bool,
    wedge_fired: bool,
    corrupt_fired: bool,
}

/// Whether a one-shot stage trigger fires for this `(stage, job)`.
fn fires(trigger: Option<StageFault>, stage: usize, job: u64, fired: &mut bool) -> bool {
    if *fired || trigger != Some(StageFault { stage, job }) {
        return false;
    }
    *fired = true;
    true
}

/// The typed failure a handoff-checksum mismatch surfaces as: an integrity
/// violation localized to the stage boundary (retryable — healing replays
/// the producer, which regenerates the activation).
fn handoff_error(stage: usize, expected: u64, actual: u64) -> ServeError {
    ServeError::Integrity(SimError {
        block: format!("pipeline.stage{stage}.handoff"),
        tile: 0,
        cycle: 0,
        cause: SimCause::IntegrityViolation(Violation {
            kind: CheckKind::Element,
            lane: stage,
            expected: (expected & 0x7FFF) as Word,
            actual: (actual & 0x7FFF) as Word,
        }),
    })
}

impl<'a> StageWorker<'a> {
    fn new(shared: &'a PipeShared, stage: usize) -> Self {
        StageWorker {
            shared,
            stage,
            domain: FaultDomain::new(&shared.config, stage, shared.config.stage_spares),
            kill_fired: false,
            wedge_fired: false,
            corrupt_fired: false,
        }
    }

    /// The worker loop: pop a job for this stage, process it, repeat until
    /// the pipeline drains (closed and nothing in flight) or the stage dies.
    fn run(mut self) {
        loop {
            let mut st = self.shared.lock();
            let job = loop {
                if st.dead[self.stage] {
                    return;
                }
                let popped = if self.stage == 0 {
                    st.pop_entry()
                } else {
                    st.queues[self.stage].pop_front()
                };
                if let Some(job) = popped {
                    break job;
                }
                if !st.open && st.inflight == 0 {
                    return;
                }
                st = self.shared.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
            };
            drop(st);
            if !self.process(job) {
                return;
            }
        }
    }

    /// Process one job at this stage. Returns `false` when the stage died
    /// doing it.
    fn process(&mut self, mut job: StageJob) -> bool {
        let shared = self.shared;
        let cfg = &shared.config;
        let s = self.stage;

        // Deadline propagation: shed at this boundary if the remaining
        // budget can no longer cover this stage and everything after it.
        // `frac_after[s]` is the share of predicted work in stages *after*
        // `s`, so the cut-off at stage `s` is the final deadline minus the
        // downstream stages' proportional slice — a job past it would burn
        // this stage and still miss.
        if let Some(final_deadline) = job.deadline {
            let downstream = job.budget.mul_f64(shared.frac_after[s]);
            if Instant::now() + downstream >= final_deadline {
                shared.stats.deadline_sheds.fetch_add(1, Ordering::Relaxed);
                shared.conclude(job.reply, Err(ServeError::DeadlineExceeded));
                return true;
            }
        }

        // Chaos: corrupt the handoff before entry verification sees it.
        if fires(cfg.chaos.stage_corrupt, s, job.id, &mut self.corrupt_fired) {
            if let Some(w) = job.activation.as_mut_slice().first_mut() {
                *w ^= 1;
            }
        }

        // Handoff integrity: verify the producer's checksum at entry.
        let actual = tensor_checksum(&job.activation);
        if actual != job.checksum {
            shared.stats.handoff_corruptions.fetch_add(1, Ordering::Relaxed);
            let e = handoff_error(s, job.checksum, actual);
            return self.fail(job, e, RetryClass::Retry);
        }

        // Checkpoint this verified boundary (dedup: boundary 0 was stored
        // at submit; a healed job re-enters with its checkpoint intact).
        let on_stride = cfg.checkpoint_every > 0 && s.is_multiple_of(cfg.checkpoint_every);
        if (s == 0 || on_stride) && job.checkpoints.last().map(|(b, _, _)| *b) != Some(s) {
            job.checkpoints.push((s, job.activation.clone(), job.checksum));
            shared.stats.checkpoints_stored.fetch_add(1, Ordering::Relaxed);
        }

        // Chaos triggers for this pass.
        let kill = fires(cfg.chaos.stage_kill, s, job.id, &mut self.kill_fired);
        let wedge = fires(cfg.chaos.stage_wedge, s, job.id, &mut self.wedge_fired);
        if wedge {
            self.domain.backend().set_fault_plan(Some(FaultPlan::explicit(vec![Fault {
                tile: 0,
                cycle: 1,
                site: FaultSite::Temporal(TemporalFault::Wedge),
            }])));
        }
        // Stage watchdog: once this stage's ns-per-cycle estimate has
        // calibrated, arm a wall deadline over the whole stage pass. A run
        // cancelled past it surfaces [`ServeError::Preempted`] and walks
        // the restart→spare ladder.
        let predicted = shared.model.stages()[s].predicted_cycles();
        let ns = shared.ns_per_cycle[s].get();
        let token = shared.watchdog.arm(s, predicted, ns, cfg.watchdog_slack);
        let armed = token.is_some();
        self.domain.backend().set_cancel_token(token);
        let budget_mult = if cfg.cycle_budget > 0.0 {
            cfg.cycle_budget
        } else if wedge && !armed {
            // No budget and no armed watchdog: fall back so the injected
            // wedge still surfaces as a typed preemption. With the watchdog
            // armed the wedge is caught on the wall clock instead — the
            // path the combined soak gate exercises.
            WEDGE_FALLBACK_BUDGET
        } else {
            0.0
        };

        // Run the stage's layers under supervision.
        let started = Instant::now();
        let layers = shared.model.stages()[s].layers();
        let backend = self.domain.backend();
        let activation = &job.activation;
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(Tensor, Vec<LayerReport>), ServeError> {
            assert!(!kill, "chaos: injected stage kill");
            let mut act = activation.clone();
            let mut reports = Vec::with_capacity(layers.len());
            for i in layers.clone() {
                let compiled = shared.model.layer(i);
                backend.set_cycle_budget(cycle_budget(compiled.block_compute_cycles(), budget_mult));
                let (out, report) = backend.run_layer(compiled, &act, &shared.weights[i])?;
                reports.push(report);
                act = out;
            }
            Ok((act, reports))
        }));
        if armed {
            shared.watchdog.disarm(s);
        }
        if wedge {
            // Put the configured (non-wedge) plan back for later passes.
            self.domain.restore_fault_plan(cfg);
        }

        match outcome {
            Ok(Ok((out, reports))) => {
                // A healthy pass is a calibration sample for the stage's
                // ns-per-cycle estimate.
                shared.ns_per_cycle[s].observe(predicted, started.elapsed());
                self.forward(job, out, reports);
                true
            }
            Ok(Err(e)) => {
                if matches!(e, ServeError::Integrity(_)) {
                    shared.stats.integrity_failures.fetch_add(1, Ordering::Relaxed);
                }
                if e.is_preemption() {
                    shared.stats.preemptions.fetch_add(1, Ordering::Relaxed);
                }
                let class = RetryClass::of(&e);
                self.fail(job, e, class)
            }
            Err(payload) => {
                shared.stats.panics_caught.fetch_add(1, Ordering::Relaxed);
                let message = panic_message(payload.as_ref());
                self.fail(job, ServeError::WorkerPanic { message }, RetryClass::RebuildAndRetry)
            }
        }
    }

    /// Hand a completed stage's output onward: reply when this was the last
    /// stage, otherwise checksum and enqueue for the next one (charging the
    /// DMA handoff).
    fn forward(&mut self, mut job: StageJob, out: Tensor, reports: Vec<LayerReport>) {
        let shared = self.shared;
        let s = self.stage;
        job.reports.extend(reports);
        job.activation = out;
        if s + 1 == shared.model.num_stages() {
            let mut report = LayerReport::total(shared.model.name(), &job.reports);
            report.cycles += job.handoff_cycles;
            report.dma_cycles += job.handoff_cycles;
            shared.stats.cycles_charged.fetch_add(report.cycles, Ordering::Relaxed);
            let response = Response {
                output: job.activation,
                report,
                batch_size: 1,
                worker: s,
                latency: job.enqueued.elapsed(),
                request_id: job.reply.request_id(),
            };
            shared.conclude(job.reply, Ok(response));
            return;
        }
        job.checksum = tensor_checksum(&job.activation);
        let hand = shared.model.handoff_cycles(s);
        job.handoff_cycles += hand;
        shared.stats.handoff_cycles.fetch_add(hand, Ordering::Relaxed);
        shared.enqueue(job, s + 1, false);
    }

    /// Handle a failed pass per its [`RetryClass`]: reply finally, or heal
    /// from the last checkpoint (walking the rebuild/failover ladder first
    /// for rebuild-class failures). Returns `false` when the stage died.
    fn fail(&mut self, mut job: StageJob, e: ServeError, class: RetryClass) -> bool {
        let shared = self.shared;
        match class {
            RetryClass::Final => {
                shared.conclude(job.reply, Err(e));
                true
            }
            RetryClass::Retry | RetryClass::RebuildAndRetry => {
                if class == RetryClass::RebuildAndRetry {
                    // Walk the domain's ladder, counting a restart or a
                    // failover; with budget and spares exhausted, die.
                    let counters = match self.domain.rebuild(&shared.config) {
                        Rebuilt::Restarted => &shared.stats.stage_restarts,
                        Rebuilt::FailedOver => &shared.stats.stage_failovers,
                        Rebuilt::Exhausted => {
                            self.die(job);
                            return false;
                        }
                    };
                    counters[self.stage].fetch_add(1, Ordering::Relaxed);
                }
                job.attempts += 1;
                if job.attempts > shared.config.max_retries {
                    let attempts = job.attempts;
                    shared.conclude(
                        job.reply,
                        Err(ServeError::Quarantined {
                            attempts,
                            cause: Box::new(e),
                        }),
                    );
                    return true;
                }
                self.heal(&mut job);
                // Healing may target an earlier stage; hand the job to that
                // queue's front so recovery preempts fresh work.
                let b = job.checkpoints.last().map_or(0, |(b, _, _)| *b);
                shared.enqueue(job, b, true);
                true
            }
        }
    }

    /// Roll `job` back to its most recent checkpoint at or before this
    /// stage. Replay counters cover exactly the stages that will re-run.
    fn heal(&mut self, job: &mut StageJob) {
        let shared = self.shared;
        let s = self.stage;
        let (b, act, sum) = job
            .checkpoints
            .iter()
            .rev()
            .find(|(b, _, _)| *b <= s)
            .expect("boundary 0 is always checkpointed")
            .clone();
        job.activation = act;
        job.checksum = sum;
        job.checkpoints.retain(|(x, _, _)| *x <= b);
        // Drop reports (and their cycles) for the layers being replayed.
        job.reports.truncate(shared.model.stages()[b].layers().start);
        for x in b..=s {
            shared.stats.stage_replays[x].fetch_add(1, Ordering::Relaxed);
        }
        shared.stats.checkpoint_restores.fetch_add(1, Ordering::Relaxed);
    }

    /// Retire this stage: flag it dead, shed its queue and the in-hand job
    /// with [`ServeError::Degraded`]. Upstream stages shed at forward time;
    /// new submits shed at admission — whole-model traffic degrades before
    /// any single-layer traffic would.
    fn die(&mut self, job: StageJob) {
        let shared = self.shared;
        let s = self.stage;
        let mut st = shared.lock();
        st.dead[s] = true;
        let e = shared.degraded(&st.dead);
        let mut drained: Vec<StageJob> = st.queues[s].drain(..).collect();
        if s == 0 {
            // Stage 0 also owns the per-class entry FIFOs.
            for q in &mut st.entry {
                drained.extend(q.drain(..));
            }
        }
        drop(st);
        shared.conclude(job.reply, Err(e.clone()));
        for j in drained {
            shared.conclude(j.reply, Err(e.clone()));
        }
        shared.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npcgra_arch::CgraSpec;
    use npcgra_nn::ConvLayer;

    fn small_model(stages: usize) -> (CompiledModel, Vec<Tensor>, Vec<ConvLayer>) {
        let layers = vec![
            ConvLayer::depthwise("dw1", 3, 8, 8, 3, 1, 1),
            ConvLayer::pointwise("pw1", 3, 4, 8, 8),
            ConvLayer::depthwise("dw2", 4, 8, 8, 3, 1, 1),
            ConvLayer::pointwise("pw2", 4, 4, 8, 8),
        ];
        let spec = CgraSpec::np_cgra(4, 4);
        let model = CompiledModel::compile("tiny", &layers, &spec, stages).unwrap();
        let weights: Vec<Tensor> = layers
            .iter()
            .enumerate()
            .map(|(i, l)| l.random_weights(10 + i as u64))
            .collect();
        (model, weights, layers)
    }

    fn config(spec: &CgraSpec) -> ServeConfig {
        ServeConfig::for_spec(spec).with_restart_backoff(Duration::ZERO)
    }

    /// What the reference layer chain makes of `input`.
    fn golden(layers: &[ConvLayer], weights: &[Tensor], input: &Tensor) -> Tensor {
        let run = |act: Tensor, (l, w)| npcgra_nn::reference::run_layer(l, &act, w).unwrap();
        layers.iter().zip(weights).fold(input.clone(), run)
    }

    #[test]
    fn pipeline_serves_bit_exact_end_to_end() {
        let (model, weights, layers) = small_model(2);
        let cfg = config(model.spec());
        let input = Tensor::random(3, 8, 8, 77);
        let golden = golden(&layers, &weights, &input);
        let pipe = Pipeline::start(cfg, model, weights).unwrap();
        let ticket = pipe.submit(input).unwrap();
        let response = ticket.wait().unwrap();
        assert_eq!(response.output, golden, "pipeline output diverged from the reference");
        assert!(response.report.cycles > 0);
        let stats = pipe.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.total_replays(), 0, "a clean run heals nothing");
        assert_eq!(stats.total_failovers(), 0);
    }

    #[test]
    fn submit_validates_shape_and_capacity() {
        let (model, weights, _) = small_model(2);
        let cfg = config(model.spec()).with_queue_capacity(64);
        let pipe = Pipeline::start(cfg, model, weights).unwrap();
        let err = pipe.submit(Tensor::zeros(2, 8, 8)).unwrap_err();
        assert!(matches!(err, ServeError::ShapeMismatch { expected: (3, 8, 8), .. }));
        drop(pipe);
    }

    #[test]
    fn start_rejects_wrong_weights() {
        let (model, mut weights, _) = small_model(2);
        weights.pop();
        let cfg = config(&CgraSpec::np_cgra(4, 4));
        assert!(matches!(
            Pipeline::start(cfg, model, weights),
            Err(ServeError::ShapeMismatch { .. })
        ));
        let (model, mut weights, _) = small_model(2);
        weights[0] = Tensor::zeros(1, 1, 1);
        assert!(matches!(
            Pipeline::start(cfg, model, weights),
            Err(ServeError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn shutdown_rejects_new_submits_but_drains_inflight() {
        let (model, weights, _) = small_model(2);
        let cfg = config(model.spec());
        let pipe = Pipeline::start(cfg, model, weights).unwrap();
        let tickets: Vec<Ticket> = (0..4).map(|i| pipe.submit(Tensor::random(3, 8, 8, i)).unwrap()).collect();
        let stats = pipe.shutdown();
        assert_eq!(stats.completed, 4, "shutdown drains all in-flight inferences");
        for t in tickets {
            assert!(t.wait_timeout(Duration::ZERO).is_ok(), "every ticket resolved");
        }
    }

    #[test]
    fn stage_kill_heals_from_checkpoint_and_fails_over() {
        let (model, weights, layers) = small_model(2);
        let mut cfg = config(model.spec())
            .with_restart_budget(0)
            .with_stage_spares(1)
            .with_checkpoint_every(1);
        cfg.chaos.stage_kill = Some(StageFault { stage: 1, job: 1 });
        let inputs: Vec<Tensor> = (0..3).map(|i| Tensor::random(3, 8, 8, 100 + i)).collect();
        let goldens: Vec<Tensor> = inputs.iter().map(|input| golden(&layers, &weights, input)).collect();
        let pipe = Pipeline::start(cfg, model, weights).unwrap();
        let tickets: Vec<Ticket> = inputs.into_iter().map(|i| pipe.submit(i).unwrap()).collect();
        for (t, golden) in tickets.into_iter().zip(&goldens) {
            assert_eq!(&t.wait().unwrap().output, golden, "healed inference stayed bit-exact");
        }
        let stats = pipe.shutdown();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.panics_caught, 1);
        assert_eq!(stats.stage_failovers, vec![0, 1], "budget 0 fails straight over to the spare");
        assert_eq!(stats.stage_replays, vec![0, 1], "healing replayed only the killed stage");
        assert_eq!(stats.checkpoint_restores, 1);
    }

    #[test]
    fn spare_exhaustion_sheds_whole_model_traffic() {
        let (model, weights, _) = small_model(2);
        let mut cfg = config(model.spec())
            .with_restart_budget(0)
            .with_stage_spares(0)
            .with_checkpoint_every(1);
        cfg.chaos.stage_kill = Some(StageFault { stage: 1, job: 0 });
        let pipe = Pipeline::start(cfg, model, weights).unwrap();
        let t = pipe.submit(Tensor::random(3, 8, 8, 5)).unwrap();
        let err = t.wait().unwrap_err();
        assert!(
            matches!(err, ServeError::Degraded { healthy: 1, workers: 2 }),
            "no spares: the killed stage dies and sheds, got {err}"
        );
        // Follow-up whole-model submits shed at admission.
        let err = loop {
            match pipe.submit(Tensor::random(3, 8, 8, 6)) {
                Err(e) => break e,
                // The death races admission; a briefly accepted job sheds
                // at the dead stage instead.
                Ok(t) => {
                    let _ = t.wait();
                }
            }
        };
        assert!(matches!(err, ServeError::Degraded { .. }));
        let stats = pipe.shutdown();
        assert_eq!(stats.completed, 0);
        assert!(stats.shed >= 2);
    }

    #[test]
    fn heal_onto_a_dead_stage_sheds_instead_of_stranding() {
        let (model, weights, _) = small_model(2);
        let pipe = Pipeline::start(config(model.spec()), model, weights).unwrap();
        // Stage 0 has died since this job passed it; the job reaches stage
        // 1 with a bad handoff checksum, so healing targets boundary 0.
        let input = Tensor::random(3, 8, 8, 3);
        let sum = tensor_checksum(&input);
        let (reply, ticket) = reply_pair();
        let now = Instant::now();
        let mut st = pipe.shared.lock();
        st.dead[0] = true;
        st.inflight += 1;
        st.queues[1].push_back(StageJob {
            id: 0,
            checkpoints: vec![(0, input.clone(), sum)],
            activation: input,
            checksum: sum ^ 1,
            attempts: 0,
            reports: Vec::new(),
            handoff_cycles: 0,
            enqueued: now,
            stage_enqueued: now,
            class: Priority::Interactive,
            deadline: None,
            budget: Duration::ZERO,
            reply,
        });
        drop(st);
        pipe.shared.ready.notify_all();
        let result = ticket.wait_timeout(Duration::from_secs(3));
        if !matches!(result, Err(ServeError::Degraded { healthy: 1, workers: 2 })) {
            // A job stranded in dead stage 0's queue also blocks `Drop`;
            // leak the pipeline so this fails instead of hanging the suite.
            std::mem::forget(pipe);
            panic!("the healed job was not shed: {result:?}");
        }
        let stats = pipe.shutdown();
        assert_eq!((stats.handoff_corruptions, stats.shed), (1, 1));
    }

    #[test]
    fn checkpoint_stride_replays_from_the_earlier_boundary() {
        let (model, _weights, _) = small_model(4);
        assert_eq!(model.num_stages(), 2, "two fused units cap the stage count");
        let (model4, weights4, layers4) = {
            // A 4-unit chain so stride-2 checkpointing has a gap to prove.
            let layers = vec![
                ConvLayer::pointwise("a", 3, 3, 8, 8),
                ConvLayer::pointwise("b", 3, 3, 8, 8),
                ConvLayer::pointwise("c", 3, 3, 8, 8),
                ConvLayer::pointwise("d", 3, 3, 8, 8),
            ];
            let spec = CgraSpec::np_cgra(4, 4);
            let model = CompiledModel::compile("four", &layers, &spec, 4).unwrap();
            let weights: Vec<Tensor> = layers
                .iter()
                .enumerate()
                .map(|(i, l)| l.random_weights(30 + i as u64))
                .collect();
            (model, weights, layers)
        };
        assert_eq!(model4.num_stages(), 4);
        let mut cfg = config(model4.spec()).with_checkpoint_every(2).with_max_retries(4);
        // Corrupt the handoff INTO stage 3: with checkpoints only at 0 and
        // 2, healing must land on boundary 2 and replay stages 2 and 3.
        cfg.chaos.stage_corrupt = Some(StageFault { stage: 3, job: 0 });
        let input = Tensor::random(3, 8, 8, 41);
        let golden = golden(&layers4, &weights4, &input);
        let pipe = Pipeline::start(cfg, model4, weights4).unwrap();
        let t = pipe.submit(input).unwrap();
        assert_eq!(t.wait().unwrap().output, golden);
        let stats = pipe.shutdown();
        assert_eq!(stats.handoff_corruptions, 1);
        assert_eq!(
            stats.stage_replays,
            vec![0, 0, 1, 1],
            "stride-2 checkpoints heal from boundary 2, replaying stages 2..=3"
        );
        assert_eq!(stats.checkpoints_stored, 2, "boundaries 0 and 2 only");
        drop(layers4);
    }

    #[test]
    fn wedge_preempts_and_heals_via_cycle_budget() {
        let (model, weights, layers) = small_model(2);
        let mut cfg = config(model.spec())
            .with_cycle_budget(8.0)
            .with_restart_budget(0)
            .with_stage_spares(1);
        cfg.chaos.stage_wedge = Some(StageFault { stage: 0, job: 0 });
        let input = Tensor::random(3, 8, 8, 9);
        let golden = golden(&layers, &weights, &input);
        let pipe = Pipeline::start(cfg, model, weights).unwrap();
        let t = pipe.submit(input).unwrap();
        assert_eq!(t.wait().unwrap().output, golden, "wedged inference healed bit-exact");
        let stats = pipe.shutdown();
        assert_eq!(stats.preemptions, 1, "the wedge became a typed cycle-budget preemption");
        assert_eq!(stats.stage_failovers, vec![1, 0]);
        assert_eq!(stats.stage_replays, vec![1, 0]);
    }
}
