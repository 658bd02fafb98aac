//! The worker-shard server: admission, queueing, batching, execution.
//!
//! Each worker thread owns one simulated [`Machine`](npcgra_sim::Machine)
//! (a "shard") and drains a shared, bounded, per-model work queue.
//! Dispatch is work-conserving: a worker that asks for work takes the
//! oldest queued request at once, with up to `max_batch` of its model's
//! backlog behind it, so batches form only from what queued while every
//! worker was busy. (An opt-in `max_linger` holds a partial batch until its
//! head has waited that long.) The worker coalesces the requests with
//! [`crate::batch`], fetches the compiled program from the shared
//! [`ProgramCache`], and runs the batch on its own machine. Requests whose
//! deadline passed while queued are shed at batch formation, before any
//! simulation work is spent on them.
//!
//! Execution is supervised ([`crate::supervisor`]): worker panics are
//! caught, the shard's machine is rebuilt, and a restart budget bounds how
//! many panics a shard survives before it is retired. Failed batches flow
//! through the bisecting retry policy ([`crate::retry`]) that isolates
//! poison requests so their batch-mates still complete.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use npcgra_nn::{ConvKind, ConvLayer, Tensor};
use npcgra_sim::{LayerReport, MappingKind};

use crate::cache::ProgramCache;
use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::journal::{self, DedupEntry, DedupTable, JournalConfig, JournalWriter, Record, RecoveredAdmit, RecoveryReport};
use crate::overload::{brownout_step, LevelChange, OverloadController, Priority, WfqScheduler, CLASSES, CLASS_WEIGHTS};
use crate::stats::{Stats, StatsSnapshot, WorkerExit};
use crate::supervisor;
use crate::watchdog::Watchdog;

/// Bound on distinct compiled programs kept in the shared cache; the
/// least-recently-used entry is evicted past it.
const PROGRAM_CACHE_CAPACITY: usize = 512;

/// Handle to a registered model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelId(pub(crate) usize);

impl ModelId {
    /// The id as a dense registration index (what the wire protocol
    /// carries).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuild an id from its dense index. An index that was never
    /// registered is not dangerous — submitting with it yields
    /// [`ServeError::UnknownModel`].
    #[must_use]
    pub fn from_index(i: usize) -> ModelId {
        ModelId(i)
    }
}

/// A completed inference.
#[derive(Debug, Clone)]
pub struct Response {
    /// The output feature map, bit-exact with a solo run of the model.
    pub output: Tensor,
    /// Simulated-hardware performance report for the run that produced
    /// this output (shared by all requests coalesced into the batch).
    pub report: LayerReport,
    /// How many requests the executing batch coalesced.
    pub batch_size: usize,
    /// Which worker shard ran the batch.
    pub worker: usize,
    /// Queue + execution time, from admission to reply.
    pub latency: Duration,
    /// The request's id (assigned at submit, unique within the process) —
    /// the trace key matching this reply to its client-side record.
    pub request_id: u64,
}

/// The reply slot backing one request: a one-shot rendezvous between the
/// worker that eventually replies and the [`Ticket`] that redeems it.
/// Unlike a channel, the slot has an explicit *tombstoned* state: a
/// dropped (abandoned) ticket marks it, so a late worker reply is dropped
/// and counted (`late_replies`) instead of leaking into a buffer nobody
/// will ever read.
#[derive(Debug)]
struct ReplySlot {
    state: Mutex<SlotState>,
    ready: Condvar,
    /// The request id minted when this slot was created at submit.
    request_id: u64,
}

/// Source of request ids: process-wide, monotonically increasing from 1.
/// Process-wide (rather than per-server) so an id in a log line is
/// unambiguous even with several servers (or a pipeline) in one process.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

#[derive(Debug)]
enum SlotState {
    /// No reply yet; the ticket is still live.
    Waiting,
    /// The reply landed and awaits redemption.
    Ready(Box<Result<Response, ServeError>>),
    /// The reply was redeemed.
    Taken,
    /// The ticket was dropped before a reply arrived; any reply is late.
    Tombstoned,
    /// The send side was dropped without ever replying (a worker died
    /// outside the supervised region).
    Lost,
}

/// How one reply landed, from [`ReplySender::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Delivery {
    /// The reply landed in the waiting slot.
    Delivered,
    /// The ticket was abandoned before the reply arrived; the reply is
    /// dropped and counted late.
    Abandoned,
}

/// The send side of one request's reply slot, held by `Pending` as the
/// request moves through queues, batches and retries. It is the slot's
/// only sender, and [`send`](ReplySender::send) consumes it, so a request
/// is answered at most once by construction.
#[derive(Debug)]
pub(crate) struct ReplySender {
    slot: Arc<ReplySlot>,
}

impl ReplySender {
    /// The request id minted for this slot at submit.
    pub(crate) fn request_id(&self) -> u64 {
        self.slot.request_id
    }

    /// Deliver the reply, reporting how it landed. Only the ticket can
    /// have moved the slot out of `Waiting` (by tombstoning it).
    pub(crate) fn send(self, result: Result<Response, ServeError>) -> Delivery {
        let mut s = self.slot.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !matches!(*s, SlotState::Waiting) {
            return Delivery::Abandoned;
        }
        *s = SlotState::Ready(Box::new(result));
        self.slot.ready.notify_all();
        Delivery::Delivered
    }
}

impl Drop for ReplySender {
    fn drop(&mut self) {
        let mut s = self.slot.state.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(*s, SlotState::Waiting) {
            *s = SlotState::Lost;
            self.slot.ready.notify_all();
        }
    }
}

/// Build one request's reply-slot pair.
pub(crate) fn reply_pair() -> (ReplySender, Ticket) {
    let slot = Arc::new(ReplySlot {
        state: Mutex::new(SlotState::Waiting),
        ready: Condvar::new(),
        request_id: NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed),
    });
    (ReplySender { slot: Arc::clone(&slot) }, Ticket { slot })
}

/// Deliver a reply, counting it under `late_replies` when the ticket was
/// already abandoned. Every worker-side reply goes through here.
fn send_reply(stats: &Stats, reply: ReplySender, result: Result<Response, ServeError>) {
    if reply.send(result) == Delivery::Abandoned {
        stats.late_replies.fetch_add(1, Ordering::Relaxed);
    }
}

/// The receive side of one request; redeemed with [`Ticket::wait`] or
/// polled with [`Ticket::wait_timeout`]. Dropping an unredeemed ticket
/// tombstones its reply slot: a reply arriving afterwards is dropped and
/// counted (`late_replies`) rather than left behind unread.
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<ReplySlot>,
}

impl Ticket {
    /// The request's id, assigned at submit (unique within the process).
    /// Pairs a client-side record with server-side error text and audit
    /// output ([`ServeError::for_request`](crate::ServeError::for_request)).
    #[must_use]
    pub fn request_id(&self) -> u64 {
        self.slot.request_id
    }

    /// Block until the request completes or is shed.
    ///
    /// # Errors
    ///
    /// Returns the typed rejection ([`ServeError::DeadlineExceeded`],
    /// [`ServeError::ShuttingDown`], …) or the simulation failure. If the
    /// reply slot's send side was dropped without a reply — the worker
    /// shard died outside the supervised region — this is
    /// [`ServeError::WorkerLost`], never a hang.
    pub fn wait(self) -> Result<Response, ServeError> {
        let mut s = self.slot.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match &*s {
                SlotState::Ready(_) => match std::mem::replace(&mut *s, SlotState::Taken) {
                    SlotState::Ready(r) => return *r,
                    _ => unreachable!("state checked under the lock"),
                },
                SlotState::Lost | SlotState::Taken => return Err(ServeError::WorkerLost),
                SlotState::Waiting | SlotState::Tombstoned => {
                    s = self.slot.ready.wait(s).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Block until the request completes, is shed, or `timeout` elapses.
    ///
    /// A timeout does not cancel the request: the ticket stays redeemable,
    /// so the caller may keep polling (or switch to [`Ticket::wait`]).
    /// Only *dropping* the ticket gives up on the reply (tombstoning the
    /// slot).
    ///
    /// # Errors
    ///
    /// [`ServeError::ReplyTimeout`] when no reply arrived in time,
    /// [`ServeError::WorkerLost`] when the send side was dropped,
    /// otherwise exactly as [`Ticket::wait`].
    pub fn wait_timeout(&self, timeout: Duration) -> Result<Response, ServeError> {
        let deadline = Instant::now() + timeout;
        let mut s = self.slot.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match &*s {
                SlotState::Ready(_) => match std::mem::replace(&mut *s, SlotState::Taken) {
                    SlotState::Ready(r) => return *r,
                    _ => unreachable!("state checked under the lock"),
                },
                SlotState::Lost | SlotState::Taken => return Err(ServeError::WorkerLost),
                SlotState::Waiting | SlotState::Tombstoned => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(ServeError::ReplyTimeout { waited: timeout });
                    }
                    s = match self.slot.ready.wait_timeout(s, deadline - now) {
                        Ok((guard, _)) => guard,
                        Err(poisoned) => poisoned.into_inner().0,
                    };
                }
            }
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        let mut s = self.slot.state.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(*s, SlotState::Waiting) {
            *s = SlotState::Tombstoned;
        }
    }
}

pub(crate) struct ModelEntry {
    pub(crate) name: String,
    pub(crate) layer: ConvLayer,
    pub(crate) weights: Arc<Tensor>,
}

pub(crate) struct Pending {
    pub(crate) input: Tensor,
    pub(crate) enqueued: Instant,
    pub(crate) deadline: Option<Instant>,
    pub(crate) reply: ReplySender,
    /// Failed execution attempts so far (survives requeueing across
    /// shards); the retry policy quarantines past `config.max_retries`.
    pub(crate) attempts: u32,
    /// Whether any attempt failed an ABFT output check: a completion after
    /// that counts as an integrity *recovery* (the corruption was caught
    /// and healed by retry).
    pub(crate) integrity_hit: bool,
    /// Admission priority class; decides shed order and dequeue weight.
    pub(crate) class: Priority,
    /// Client-supplied idempotency key (`0` = none); rides to the terminal
    /// outcome so [`settle`] can acknowledge the journal and fan the result
    /// out to deduplicated waiters.
    pub(crate) idem_key: u64,
}

pub(crate) struct QueueState {
    /// One FIFO per (registered model, priority class), indexed by
    /// [`ModelId`] then [`Priority::index`].
    pub(crate) queues: Vec<[VecDeque<Pending>; CLASSES]>,
    /// Queued requests per class across all models (WFQ backlog view).
    pub(crate) class_totals: [usize; CLASSES],
    /// Total requests queued across all models (admission-control bound).
    pub(crate) total: usize,
    /// Cleared by shutdown; workers then drain and exit.
    pub(crate) open: bool,
    /// Worker shards still within their restart budget. Kept under the
    /// queue lock so admission control and shard-death handling see a
    /// consistent count.
    pub(crate) healthy: usize,
    /// CoDel-style brownout controller; `None` when no delay target is
    /// configured (the ladder stays at [`BrownoutLevel::Normal`](crate::BrownoutLevel::Normal)).
    pub(crate) controller: Option<OverloadController>,
    /// Weighted-fair scheduler arbitrating classes at batch formation.
    pub(crate) wfq: WfqScheduler,
}

impl QueueState {
    /// Admit one request: the capacity check (done by the caller), the
    /// push, the class/total accounting, the scheduler activation and the
    /// admission counters all happen atomically under the queue lock —
    /// concurrent submits can never over-admit past `capacity` or skew the
    /// depth gauge.
    fn admit(&mut self, stats: &Stats, capacity: usize, model: ModelId, p: Pending) {
        let c = p.class.index();
        if self.class_totals[c] == 0 {
            // Rebase the class's virtual time so an idle class cannot bank
            // credit (see WfqScheduler::activate).
            let backlogged = std::array::from_fn(|i| self.class_totals[i] > 0);
            self.wfq.activate(p.class, backlogged);
        }
        self.queues[model.0][c].push_back(p);
        self.class_totals[c] += 1;
        self.total += 1;
        debug_assert!(
            self.total <= capacity,
            "admission raced past capacity: {} > {}",
            self.total,
            capacity
        );
        stats.submitted.fetch_add(1, Ordering::Relaxed);
        stats.admitted_by_class[c].fetch_add(1, Ordering::Release);
        stats.observe_queue_depth(self.total as u64);
    }

    /// Empty every queue, handing back what was queued.
    pub(crate) fn drain_all(&mut self) -> Vec<Pending> {
        self.class_totals = [0; CLASSES];
        self.total = 0;
        self.queues.iter_mut().flatten().flat_map(|queue| queue.drain(..)).collect()
    }

    /// Remove `taken` requests of `class`, keeping totals consistent.
    fn debit(&mut self, class: usize, taken: usize) {
        self.class_totals[class] -= taken;
        self.total -= taken;
    }

    /// The enqueue time of the oldest queued request, if any.
    fn oldest_enqueued(&self) -> Option<Instant> {
        self.queues
            .iter()
            .flat_map(|per| per.iter())
            .filter_map(|dq| dq.front().map(|p| p.enqueued))
            .min()
    }

    /// Evict the oldest queued request of the lowest-priority backlogged
    /// class *strictly below* `incoming`, making room under a full queue.
    fn evict_below(&mut self, incoming: Priority) -> Option<Pending> {
        for c in (incoming.index() + 1..CLASSES).rev() {
            if self.class_totals[c] == 0 {
                continue;
            }
            let (m, _) = self
                .queues
                .iter()
                .enumerate()
                .filter_map(|(m, per)| per[c].front().map(|p| (m, p.enqueued)))
                .min_by_key(|&(_, t)| t)?;
            let p = self.queues[m][c].pop_front()?;
            self.debit(c, 1);
            return Some(p);
        }
        None
    }
}

/// An in-flight reservation for one idempotency key: exactly one execution
/// owns the key; later submits with the same key park a [`ReplySender`]
/// here and share the owner's terminal outcome instead of executing again.
struct Reservation {
    /// The owning admission's request id (`0` while the reservation is
    /// provisional — taken before admission commits).
    request_id: u64,
    /// Reply slots of deduplicated duplicate submits, fanned out at ack.
    waiters: Vec<ReplySender>,
}

/// Runtime state behind an enabled admission journal. One mutex covers the
/// writer, the dedup table and the reservations so the dedup-check /
/// reserve / acknowledge transitions are atomic; lock order is always
/// queue-then-journal (ack sites take only the journal lock), so the pair
/// cannot deadlock.
struct JournalRuntime {
    writer: JournalWriter,
    dedup: DedupTable,
    reserved: HashMap<u64, Reservation>,
    /// Recovered admitted-but-unacknowledged work, parked here by
    /// [`Server::start_with_journal`] until the models are registered again
    /// and [`Server::replay_recovered`] re-enqueues it.
    stash: Vec<RecoveredAdmit>,
}

pub(crate) struct JournalState {
    inner: Mutex<JournalRuntime>,
}

impl JournalState {
    fn lock(&self) -> MutexGuard<'_, JournalRuntime> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mirror the writer's monotone durability counters into the stats.
    fn sync_counters(stats: &Stats, writer: &JournalWriter) {
        stats.journal_appends.store(writer.appends, Ordering::Relaxed);
        stats.journal_fsyncs.store(writer.fsyncs, Ordering::Relaxed);
        stats.journal_bytes.store(writer.synced_len(), Ordering::Relaxed);
    }

    /// Record a terminal outcome: append the Ack record, remember a
    /// success for redelivery, release the key's reservation and fan the
    /// outcome out to any deduplicated waiters. Called once per admitted
    /// keyed request, after its reply.
    fn acknowledge(&self, stats: &Stats, idem_key: u64, request_id: u64, result: &Result<Response, ServeError>) {
        let mut jr = self.lock();
        let outcome = result.as_ref().ok().map(|resp| {
            let (c, h, w) = resp.output.shape();
            ((clamp_u16(c), clamp_u16(h), clamp_u16(w)), resp.output.as_slice().to_vec())
        });
        if idem_key != 0 {
            if let Some((shape, words)) = &outcome {
                let fresh = jr.dedup.insert(
                    idem_key,
                    DedupEntry {
                        request_id,
                        shape: *shape,
                        words: words.clone(),
                    },
                );
                if !fresh {
                    // Two executions completed the same key: the exactly-
                    // once machinery failed somewhere. Counted, gated on in
                    // the crash soak.
                    stats.duplicate_executions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if jr
            .writer
            .append(&Record::Ack {
                request_id,
                idem_key,
                outcome,
            })
            .is_err()
        {
            stats.journal_errors.fetch_add(1, Ordering::Relaxed);
        }
        Self::sync_counters(stats, &jr.writer);
        let waiters = if idem_key != 0 {
            jr.reserved.remove(&idem_key).map(|r| r.waiters).unwrap_or_default()
        } else {
            Vec::new()
        };
        drop(jr);
        for waiter in waiters {
            stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
            let _ = waiter.send(result.clone());
        }
    }

    /// Roll a provisional reservation back after a failed admission,
    /// failing any waiters that parked on it in the window.
    fn abort_reservation(&self, idem_key: u64, error: &ServeError) {
        let waiters = self.lock().reserved.remove(&idem_key).map(|r| r.waiters).unwrap_or_default();
        for waiter in waiters {
            let _ = waiter.send(Err(error.clone()));
        }
    }
}

fn clamp_u16(v: usize) -> u16 {
    u16::try_from(v).unwrap_or(u16::MAX)
}

/// A recovery resubmit supersedes the admit record it was replayed from:
/// append an outcome-less Ack for the old request id so it stops
/// replaying. No-op for ordinary submits (`supersedes == 0`).
fn append_superseding_ack(stats: &Stats, jr: &mut JournalRuntime, idem_key: u64, supersedes: u64) {
    if supersedes == 0 {
        return;
    }
    if jr
        .writer
        .append(&Record::Ack {
            request_id: supersedes,
            idem_key,
            outcome: None,
        })
        .is_err()
    {
        stats.journal_errors.fetch_add(1, Ordering::Relaxed);
    }
    JournalState::sync_counters(stats, &jr.writer);
}

/// Build the redelivered reply for a dedup hit: the remembered output
/// words, bit-exact, under a synthetic zero-cost report (no simulator ran).
/// The response carries the *original* execution's request id — the trace
/// key linking the redelivery back to the run that produced the bits.
fn redelivery_response(entry: &DedupEntry) -> Response {
    Response {
        output: entry.tensor(),
        report: LayerReport {
            name: "journal-redelivery".to_string(),
            cycles: 0,
            compute_cycles: 0,
            dma_cycles: 0,
            macs: 0,
            pes: 0,
            clock_hz: 1.0,
            host_seconds: 0.0,
            integrity_checked: 0,
            integrity_failed: 0,
            integrity_recovered: 0,
        },
        batch_size: 0,
        worker: 0,
        latency: Duration::ZERO,
        request_id: entry.request_id,
    }
}

/// Flush and fsync any buffered journal records; a no-op without one.
pub(crate) fn flush_journal_shared(shared: &Shared) {
    if let Some(j) = &shared.journal {
        let mut jr = j.lock();
        if jr.writer.flush().is_err() {
            shared.stats.journal_errors.fetch_add(1, Ordering::Relaxed);
        }
        JournalState::sync_counters(&shared.stats, &jr.writer);
    }
}

/// Deliver a terminal outcome through [`send_reply`], then acknowledge it
/// in the admission journal. The reply goes first so it never waits on the
/// journal append (nor its periodic inline fsync); until the Ack lands, a
/// retry of the key parks on the reservation and shares this outcome.
/// Every worker-side terminal site goes through here; with the journal
/// disabled it is exactly [`send_reply`].
pub(crate) fn settle(shared: &Shared, idem_key: u64, reply: ReplySender, result: Result<Response, ServeError>) {
    let Some(j) = &shared.journal else {
        return send_reply(&shared.stats, reply, result);
    };
    let request_id = reply.request_id();
    let for_ack = result.clone();
    send_reply(&shared.stats, reply, result);
    j.acknowledge(&shared.stats, idem_key, request_id, &for_ack);
}

pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    pub(crate) models: RwLock<Vec<ModelEntry>>,
    pub(crate) queue: Mutex<QueueState>,
    pub(crate) ready: Condvar,
    pub(crate) cache: ProgramCache,
    pub(crate) stats: Stats,
    pub(crate) watchdog: Arc<Watchdog>,
    pub(crate) started: Instant,
    /// The crash-durability journal; `None` (the default) keeps every
    /// admission path byte-identical to a journal-less server.
    pub(crate) journal: Option<JournalState>,
}

/// A sharded, batching inference server over the cycle-accurate simulator.
///
/// See the [crate docs](crate) for the architecture; see
/// [`ServeConfig`] for tuning knobs.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<WorkerExit>>,
}

impl Server {
    /// Start the server: spawns `config.workers` worker-shard threads,
    /// plus the batch watchdog thread when `watchdog_slack` is enabled.
    #[must_use]
    pub fn start(config: ServeConfig) -> Self {
        Self::start_inner(config, None)
    }

    /// Start the server with a crash-durability journal at
    /// `journal.path`. Recovers the journal first: replays the file
    /// (tolerating a torn tail), rebuilds the redelivery dedup table from
    /// acknowledged successes, compacts live state into a fresh file, and
    /// parks admitted-but-unacknowledged requests until the caller has
    /// re-registered its models (in the same order as the previous
    /// process) and calls [`Server::replay_recovered`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Journal`] if the journal file exists but does not
    /// start with the journal magic, or on I/O failure while reading,
    /// compacting or reopening it.
    pub fn start_with_journal(config: ServeConfig, journal: JournalConfig) -> Result<(Self, RecoveryReport), ServeError> {
        let recovery = journal::recover(&journal).map_err(|e| ServeError::Journal { message: e.to_string() })?;
        let report = recovery.report;
        let state = JournalState {
            inner: Mutex::new(JournalRuntime {
                writer: recovery.writer,
                dedup: recovery.dedup,
                reserved: HashMap::new(),
                stash: recovery.admits,
            }),
        };
        let server = Self::start_inner(config, Some(state));
        server
            .shared
            .stats
            .journal_replayed
            .store(report.replayed as u64, Ordering::Relaxed);
        Ok((server, report))
    }

    fn start_inner(config: ServeConfig, journal: Option<JournalState>) -> Self {
        let shared = Arc::new(Shared {
            journal,
            stats: Stats::new(config.workers, config.max_batch),
            models: RwLock::new(Vec::new()),
            queue: Mutex::new(QueueState {
                queues: Vec::new(),
                class_totals: [0; CLASSES],
                total: 0,
                open: true,
                healthy: config.workers,
                controller: config
                    .overload
                    .delay_target
                    .map(|target| OverloadController::new(target, config.overload.delay_window, Instant::now())),
                wfq: WfqScheduler::new(CLASS_WEIGHTS),
            }),
            ready: Condvar::new(),
            cache: ProgramCache::with_capacity(PROGRAM_CACHE_CAPACITY),
            watchdog: Watchdog::new(config.workers),
            started: Instant::now(),
            config,
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("npcgra-serve-{i}"))
                    .spawn(move || supervisor::run_worker(&shared, i))
                    .expect("spawn worker shard")
            })
            .collect();
        // A fired slot needs no bookkeeping here: the cancelled run
        // surfaces as a preemption on its own shard, which counts it.
        shared.watchdog.spawn("npcgra-serve-watchdog", config.watchdog_slack, |_| {});
        Server { shared, workers }
    }

    /// Register a model (one DSC or standard layer with its weights) and
    /// eagerly compile its program into the shared cache, so no request
    /// ever pays for mapping compilation.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShapeMismatch`] if `weights` does not have the shape
    /// [`ConvLayer::random_weights`] documents for the layer kind;
    /// [`ServeError::Sim`] if the layer cannot be mapped onto the spec.
    pub fn register(&self, name: &str, layer: ConvLayer, weights: Tensor) -> Result<ModelId, ServeError> {
        let expected = expected_weight_shape(&layer);
        let got = (weights.channels(), weights.height(), weights.width());
        if got != expected {
            return Err(ServeError::ShapeMismatch { expected, got });
        }
        if layer.kind() != ConvKind::Standard {
            self.shared
                .cache
                .get_or_compile(&layer, &self.shared.config.spec, MappingKind::Auto)?;
        }
        let mut models = self.shared.models.write().unwrap_or_else(PoisonError::into_inner);
        let id = ModelId(models.len());
        models.push(ModelEntry {
            name: name.to_string(),
            layer,
            weights: Arc::new(weights),
        });
        drop(models);
        supervisor::lock_queue(&self.shared)
            .queues
            .push(std::array::from_fn(|_| VecDeque::new()));
        Ok(id)
    }

    /// Submit a request that never expires, at [`Priority::Interactive`].
    ///
    /// # Errors
    ///
    /// As [`Server::submit_with_priority`].
    pub fn submit(&self, model: ModelId, input: Tensor) -> Result<Ticket, ServeError> {
        self.submit_with_deadline(model, input, None)
    }

    /// Submit a request at [`Priority::Interactive`] that must *start
    /// executing* within `deadline` (`None` = never expires).
    ///
    /// # Errors
    ///
    /// As [`Server::submit_with_priority`].
    pub fn submit_with_deadline(&self, model: ModelId, input: Tensor, deadline: Option<Duration>) -> Result<Ticket, ServeError> {
        self.submit_with_priority(model, input, deadline, Priority::Interactive)
    }

    /// Submit a request in an explicit [`Priority`] class. Admission
    /// control applies here: a full queue, a draining server, a degraded
    /// one (no healthy shard left), or an overloaded one (the brownout
    /// ladder sheds this class, or this non-cached model, at admission)
    /// rejects synchronously, typed. A full queue with lower-priority
    /// requests queued evicts the oldest of the lowest backlogged class
    /// instead of rejecting the newcomer.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`], [`ServeError::ShapeMismatch`],
    /// [`ServeError::DeadlineExceeded`] (a zero deadline has already
    /// expired and is rejected here, not queued), [`ServeError::QueueFull`],
    /// [`ServeError::ShuttingDown`], [`ServeError::Degraded`] or
    /// [`ServeError::Overloaded`].
    pub fn submit_with_priority(
        &self,
        model: ModelId,
        input: Tensor,
        deadline: Option<Duration>,
        class: Priority,
    ) -> Result<Ticket, ServeError> {
        self.submit_inner(model, input, deadline, class, 0, 0)
    }

    /// Submit with a client-supplied idempotency key (`0` = none). With
    /// the journal enabled and a non-zero key, the key makes the request
    /// exactly-once across process crashes and client retries: a retry of
    /// a completed request is redelivered bit-exact from the dedup table
    /// (without executing), and a retry racing an in-flight execution
    /// parks on it and shares its terminal outcome. Without a journal the
    /// key is ignored and this is exactly [`Server::submit_with_priority`].
    ///
    /// # Errors
    ///
    /// As [`Server::submit_with_priority`].
    pub fn submit_idem(
        &self,
        model: ModelId,
        input: Tensor,
        deadline: Option<Duration>,
        class: Priority,
        idem_key: u64,
    ) -> Result<Ticket, ServeError> {
        self.submit_inner(model, input, deadline, class, idem_key, 0)
    }

    fn submit_inner(
        &self,
        model: ModelId,
        input: Tensor,
        deadline: Option<Duration>,
        class: Priority,
        idem_key: u64,
        supersedes: u64,
    ) -> Result<Ticket, ServeError> {
        let shared = &self.shared;
        let uncached = {
            let models = shared.models.read().unwrap_or_else(PoisonError::into_inner);
            let entry = models.get(model.0).ok_or(ServeError::UnknownModel)?;
            let expected = (entry.layer.in_channels(), entry.layer.in_h(), entry.layer.in_w());
            let got = (input.channels(), input.height(), input.width());
            if got != expected {
                return Err(ServeError::ShapeMismatch { expected, got });
            }
            // Probed up front (outside the queue lock) for the ladder's
            // RejectUncached rung; standard layers never precompile, so
            // they are exempt rather than permanently rejected.
            entry.layer.kind() != ConvKind::Standard
                && !shared.cache.contains(&entry.layer, &shared.config.spec, MappingKind::Auto)
        };
        // A zero deadline has already expired: reject synchronously rather
        // than queue work that batch formation must shed anyway.
        if deadline.is_some_and(|d| d.is_zero()) {
            shared.stats.rejected_deadline.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::DeadlineExceeded);
        }
        let (tx, ticket) = reply_pair();
        let journaled = idem_key != 0 && shared.journal.is_some();
        if journaled {
            let j = shared.journal.as_ref().expect("journaled implies journal");
            let mut jr = j.lock();
            // A recovery resubmit acks the admit it supersedes in the same
            // critical section as whichever path it takes, so the old
            // record stops replaying no matter where a crash lands.
            if let Some(entry) = jr.dedup.get(idem_key) {
                // Completed before: redeliver the remembered bits without
                // executing.
                shared.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
                let response = redelivery_response(entry);
                append_superseding_ack(&shared.stats, &mut jr, idem_key, supersedes);
                drop(jr);
                let _ = tx.send(Ok(response));
                return Ok(ticket);
            }
            if let Some(res) = jr.reserved.get_mut(&idem_key) {
                // In flight under the same key: park on the owning
                // execution and share its terminal outcome.
                res.waiters.push(tx);
                append_superseding_ack(&shared.stats, &mut jr, idem_key, supersedes);
                return Ok(ticket);
            }
            // First sighting of this key: reserve it provisionally so a
            // concurrent retry parks instead of double-executing. Admission
            // failure below rolls this back.
            jr.reserved.insert(
                idem_key,
                Reservation {
                    request_id: 0,
                    waiters: Vec::new(),
                },
            );
        }
        let result = self.admit_queued(model, input, deadline, class, idem_key, supersedes, uncached, tx, ticket);
        if journaled {
            if let Err(e) = &result {
                let j = shared.journal.as_ref().expect("journaled implies journal");
                j.abort_reservation(idem_key, e);
            }
        }
        result
    }

    /// The queue-lock half of admission: everything from the shutdown /
    /// degraded / brownout / capacity gates through enqueue, plus the
    /// journal's Admit append (under both locks, queue then journal, so a
    /// worker cannot dequeue a request whose admit record is not yet at
    /// least buffered).
    #[allow(clippy::too_many_arguments)]
    fn admit_queued(
        &self,
        model: ModelId,
        input: Tensor,
        deadline: Option<Duration>,
        class: Priority,
        idem_key: u64,
        supersedes: u64,
        uncached: bool,
        tx: ReplySender,
        ticket: Ticket,
    ) -> Result<Ticket, ServeError> {
        let shared = &self.shared;
        let now = Instant::now();
        let mut q = supervisor::lock_queue(shared);
        if !q.open {
            shared.stats.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::ShuttingDown);
        }
        // Degraded mode (only meaningful with workers configured): with no
        // healthy shard left nothing will ever drain the queue, so shed
        // everything.
        if shared.config.workers > 0 && q.healthy == 0 {
            shared.stats.degraded_sheds.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Degraded {
                healthy: 0,
                workers: shared.config.workers,
            });
        }
        // CoDel admission: sample the live sojourn of the oldest queued
        // request (queue delay as the arriving request would see it), let
        // the controller close out elapsed windows, then apply whatever
        // rung of the brownout ladder is in force.
        let oldest = q.oldest_enqueued();
        let level = brownout_step(q.controller.as_mut(), now, oldest, |c| apply_level_change(&shared.stats, c));
        if level.sheds(class) {
            shared.stats.overload_sheds[class.index()].fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded { level, class });
        }
        if level.rejects_uncached() && uncached {
            shared.stats.overload_sheds[class.index()].fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded { level, class });
        }
        if q.total >= shared.config.queue_capacity {
            // Full: a higher-priority arrival evicts the oldest request of
            // the lowest backlogged class below it rather than bouncing.
            match q.evict_below(class) {
                Some(victim) => {
                    shared.stats.priority_evictions.fetch_add(1, Ordering::Relaxed);
                    shared.stats.overload_sheds[victim.class.index()].fetch_add(1, Ordering::Relaxed);
                    settle(
                        shared,
                        victim.idem_key,
                        victim.reply,
                        Err(ServeError::Overloaded {
                            level,
                            class: victim.class,
                        }),
                    );
                }
                None => {
                    shared.stats.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::QueueFull {
                        capacity: shared.config.queue_capacity,
                    });
                }
            }
        }
        // Capture the journal record's payload before `input` moves into
        // the queue; the append itself happens after `admit` succeeds, but
        // still under the queue lock, so no worker can execute a request
        // whose admit record is not yet buffered in the journal.
        let journal_payload = (idem_key != 0 && shared.journal.is_some()).then(|| {
            let (c, h, w) = input.shape();
            ((clamp_u16(c), clamp_u16(h), clamp_u16(w)), input.as_slice().to_vec())
        });
        let request_id = tx.request_id();
        q.admit(
            &shared.stats,
            shared.config.queue_capacity,
            model,
            Pending {
                input,
                enqueued: now,
                deadline: deadline.map(|d| now + d),
                reply: tx,
                attempts: 0,
                integrity_hit: false,
                idem_key,
                class,
            },
        );
        if let Some((shape, words)) = journal_payload {
            let j = shared.journal.as_ref().expect("payload implies journal");
            let mut jr = j.lock();
            if let Some(res) = jr.reserved.get_mut(&idem_key) {
                res.request_id = request_id;
            }
            let deadline_ms = deadline.map_or(0, |d| u32::try_from(d.as_millis()).unwrap_or(u32::MAX));
            let admit = Record::Admit {
                request_id,
                idem_key,
                model: u32::try_from(model.0).unwrap_or(u32::MAX),
                class: class.index() as u8,
                deadline_ms,
                shape,
                words,
            };
            if jr.writer.append(&admit).is_err() {
                shared.stats.journal_errors.fetch_add(1, Ordering::Relaxed);
            }
            append_superseding_ack(&shared.stats, &mut jr, idem_key, supersedes);
            JournalState::sync_counters(&shared.stats, &jr.writer);
        }
        drop(q);
        shared.ready.notify_one();
        Ok(ticket)
    }

    /// A live statistics snapshot (cache and fault counters included).
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        let depth = supervisor::lock_queue(&self.shared).total;
        let mut snap = self.shared.stats.snapshot(self.shared.started.elapsed(), depth);
        snap.cache_hits = self.shared.cache.hits();
        snap.cache_misses = self.shared.cache.misses();
        snap.cache_evictions = self.shared.cache.evictions();
        snap
    }

    /// The name a model was registered under.
    #[must_use]
    pub fn model_name(&self, model: ModelId) -> Option<String> {
        self.shared
            .models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(model.0)
            .map(|e| e.name.clone())
    }

    /// The IFM shape `(channels, height, width)` a model's requests must
    /// carry.
    #[must_use]
    pub fn model_shape(&self, model: ModelId) -> Option<(usize, usize, usize)> {
        self.shared
            .models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(model.0)
            .map(|e| (e.layer.in_channels(), e.layer.in_h(), e.layer.in_w()))
    }

    /// Register a tenant for per-tenant accounting and return its counter
    /// handle. Meant for front-ends (e.g. `npcgra-net`): the serving core
    /// itself never consults tenants, it only carries their counters so
    /// one [`StatsSnapshot`] tells the whole story
    /// ([`StatsSnapshot::tenants`]).
    #[must_use]
    pub fn register_tenant(&self, name: &str) -> crate::stats::TenantHandle {
        self.shared.stats.register_tenant(name)
    }

    /// Flush and fsync any buffered journal records. A no-op without a
    /// journal. Front-ends call this at the top of a graceful drain so
    /// every admitted-but-buffered record is durable before the last
    /// `Bye` goes out.
    pub fn flush_journal(&self) {
        flush_journal_shared(&self.shared);
    }

    /// Re-enqueue the admitted-but-unacknowledged requests recovered from
    /// the journal at [`Server::start_with_journal`]. Call after
    /// re-registering models **in the same order** as the crashed process
    /// (journal records carry model *ids*, not names). Each replayed
    /// request goes back through full admission under a fresh request id;
    /// the new admit record supersedes the recovered one, so a second
    /// crash replays each request exactly once more, never twice. Returns
    /// the number of requests re-enqueued.
    ///
    /// # Errors
    ///
    /// The first admission error aborts the replay and is returned;
    /// requests not yet replayed stay parked (and stay journaled), so a
    /// later call — or the next recovery — still sees them.
    pub fn replay_recovered(&self) -> Result<usize, ServeError> {
        let Some(j) = &self.shared.journal else {
            return Ok(0);
        };
        let stash = std::mem::take(&mut j.lock().stash);
        let mut replayed = 0usize;
        for (i, admit) in stash.iter().enumerate() {
            let class = Priority::from_index((admit.class as usize).min(CLASSES - 1));
            let outcome = self.submit_inner(
                ModelId(admit.model as usize),
                admit.tensor(),
                None,
                class,
                admit.idem_key,
                admit.request_id,
            );
            match outcome {
                Ok(_ticket) => replayed += 1,
                Err(e) => {
                    j.lock().stash.extend(stash[i..].iter().cloned());
                    return Err(e);
                }
            }
        }
        Ok(replayed)
    }

    /// Simulated process crash: sever the journal writer mid-buffer (the
    /// first `torn_bytes` of any unflushed records reach the file, torn),
    /// then tear the process state down the way a kill would — queued and
    /// in-flight requests are dropped without replies, nothing is drained,
    /// nothing further is journaled. The crash soak uses this to exercise
    /// recovery; the returned snapshot is for the *dead* process's
    /// counters only.
    pub fn hard_crash(self, torn_bytes: usize) -> StatsSnapshot {
        if let Some(j) = &self.shared.journal {
            let mut jr = j.lock();
            if jr.writer.sever(torn_bytes).is_err() {
                self.shared.stats.journal_errors.fetch_add(1, Ordering::Relaxed);
            }
            JournalState::sync_counters(&self.shared.stats, &jr.writer);
            jr.reserved.clear();
        }
        {
            let mut q = supervisor::lock_queue(&self.shared);
            q.open = false;
            // Drop every queued request silently: their senders die here,
            // so stray tickets observe `WorkerLost`, exactly as a real
            // kill would look from outside the process.
            drop(q.drain_all());
        }
        self.shared.ready.notify_all();
        for handle in self.workers {
            let _ = handle.join();
        }
        self.shared.watchdog.shutdown();
        self.shared.stats.snapshot(self.shared.started.elapsed(), 0)
    }

    /// Graceful shutdown: stop admitting, let the workers drain every
    /// queued request (batching as usual), join them, and return the final
    /// statistics — including how each worker thread ended
    /// ([`WorkerExit`]), instead of propagating worker panics as a panic
    /// cascade here. With zero healthy workers the queue cannot drain, so
    /// remaining requests are rejected with [`ServeError::ShuttingDown`].
    #[must_use]
    pub fn shutdown(self) -> StatsSnapshot {
        {
            let mut q = supervisor::lock_queue(&self.shared);
            q.open = false;
        }
        self.shared.ready.notify_all();
        let exits: Vec<WorkerExit> = self
            .workers
            .into_iter()
            .map(|h| h.join().unwrap_or(WorkerExit::Panicked))
            .collect();
        // Workers are gone, so nothing can re-arm; stop the watchdog after
        // they drain so a wedged final batch is still preemptible.
        self.shared.watchdog.shutdown();
        let mut q = supervisor::lock_queue(&self.shared);
        for p in q.drain_all() {
            self.shared.stats.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
            settle(&self.shared, p.idem_key, p.reply, Err(ServeError::ShuttingDown));
        }
        let depth = q.total;
        drop(q);
        // Every queued request has now reached a terminal outcome and been
        // acknowledged; flushing leaves the journal fully acked, so a
        // clean shutdown is always a zero-replay restart.
        flush_journal_shared(&self.shared);
        let mut snap = self.shared.stats.snapshot(self.shared.started.elapsed(), depth);
        snap.cache_hits = self.shared.cache.hits();
        snap.cache_misses = self.shared.cache.misses();
        snap.cache_evictions = self.shared.cache.evictions();
        snap.worker_exits = exits;
        snap
    }
}

pub(crate) fn expected_weight_shape(layer: &ConvLayer) -> (usize, usize, usize) {
    match layer.kind() {
        ConvKind::Depthwise => (layer.in_channels(), layer.k(), layer.k()),
        ConvKind::Pointwise => (layer.out_channels(), 1, layer.in_channels()),
        ConvKind::Standard => (
            layer.out_channels(),
            layer.k(),
            layer.k() * layer.in_channels() / layer.groups(),
        ),
    }
}

/// Fold one brownout-level transition into the stats counters and gauge.
fn apply_level_change(stats: &Stats, change: LevelChange) {
    let (counter, level) = match change {
        LevelChange::Escalated(level) => (&stats.brownout_escalations, level),
        LevelChange::Deescalated(level) => (&stats.brownout_deescalations, level),
    };
    counter.fetch_add(1, Ordering::Relaxed);
    stats.set_brownout_level(level);
}

/// Pull the next batch (all one model, one class, in dequeue order) off
/// the shared queue, blocking until one is ready or the server drains
/// empty during shutdown (→ `None`, worker exits).
///
/// The class is picked by the weighted-fair scheduler among *ready*
/// classes (a class is ready when some model queue holds a brownout-capped
/// batch, its head has lingered `max_linger`, or the server is draining),
/// the model within the class by oldest head. Under the default zero
/// linger every non-empty queue is ready, so the call sleeps only while
/// every queue is empty. Under brownout's adaptive-LIFO rungs the newest
/// requests are served first and the expired stale tail is shed at
/// formation.
///
/// The flag beside the batch says whether the call slept before it found
/// one: the shard was idle, not working through a backlog.
pub(crate) fn next_work(shared: &Shared) -> Option<(ModelId, Vec<Pending>, bool)> {
    let config = &shared.config;
    let mut q = supervisor::lock_queue(shared);
    let mut slept = false;
    loop {
        let now = Instant::now();
        // Let the brownout controller close out elapsed windows even when
        // no submissions are arriving to drive it.
        let level = brownout_step(q.controller.as_mut(), now, None, |c| apply_level_change(&shared.stats, c));
        let cap = level.batch_cap(config.max_batch);
        let lifo = level.lifo();
        let batch_ready = |dq: &VecDeque<Pending>| -> bool {
            dq.front()
                .is_some_and(|head| dq.len() >= cap || now.duration_since(head.enqueued) >= config.max_linger || !q.open)
        };
        // Ready classes → weighted-fair pick → oldest-head model.
        let mut ready = [false; CLASSES];
        for per_model in &q.queues {
            for (c, dq) in per_model.iter().enumerate() {
                ready[c] = ready[c] || batch_ready(dq);
            }
        }
        if let Some(class) = q.wfq.pick(ready) {
            let c = class.index();
            let m = q
                .queues
                .iter()
                .enumerate()
                .filter(|(_, per)| batch_ready(&per[c]))
                .map(|(m, per)| (m, per[c].front().expect("ready is non-empty").enqueued))
                .min_by_key(|&(_, t)| t)
                .map(|(m, _)| m)
                .expect("a ready class has a ready queue");
            if lifo {
                // Adaptive LIFO: shed the expired stale tail at the front
                // before serving newest-first — those requests' deadlines
                // have passed, they will be shed at execution anyway.
                while q.queues[m][c].front().is_some_and(|p| p.deadline.is_some_and(|d| now >= d)) {
                    let p = q.queues[m][c].pop_front().expect("front checked");
                    q.debit(c, 1);
                    shared.stats.rejected_deadline.fetch_add(1, Ordering::Relaxed);
                    settle(shared, p.idem_key, p.reply, Err(ServeError::DeadlineExceeded));
                }
                if q.queues[m][c].is_empty() {
                    continue;
                }
            }
            let len = q.queues[m][c].len();
            let take = len.min(cap);
            let items: Vec<Pending> = if lifo {
                q.queues[m][c].split_off(len - take).into()
            } else {
                q.queues[m][c].drain(..take).collect()
            };
            q.debit(c, take);
            q.wfq.charge(class, take);
            // Dequeue-side CoDel sample: the batch's *minimum* sojourn (the
            // standing-delay signal CoDel keys on) — its youngest member's.
            let youngest = items.iter().map(|p| p.enqueued).max();
            brownout_step(q.controller.as_mut(), now, youngest, |c| apply_level_change(&shared.stats, c));
            return Some((ModelId(m), items, slept));
        }
        // Nothing ready. Exit when drained for shutdown; otherwise wait for
        // the earliest linger expiry, or for a submit when nothing is queued.
        let oldest = q.oldest_enqueued();
        if !q.open && oldest.is_none() {
            return None;
        }
        let wait = oldest.map(|t| config.max_linger.saturating_sub(now.duration_since(t)));
        slept = true;
        q = match wait {
            Some(timeout) => match shared.ready.wait_timeout(q, timeout.max(Duration::from_micros(50))) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            },
            None => shared.ready.wait(q).unwrap_or_else(PoisonError::into_inner),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npcgra_arch::CgraSpec;

    fn config() -> ServeConfig {
        ServeConfig::for_spec(&CgraSpec::np_cgra(4, 4))
            .with_workers(2)
            .with_max_batch(2)
            .with_max_linger(Duration::from_millis(1))
    }

    #[test]
    fn serve_one_request_end_to_end() {
        let server = Server::start(config());
        let layer = ConvLayer::depthwise("dw", 3, 8, 8, 3, 1, 1);
        let w = layer.random_weights(1);
        let id = server.register("m", layer.clone(), w.clone()).unwrap();
        let ifm = Tensor::random(3, 8, 8, 2);
        let golden = npcgra_nn::reference::run_layer(&layer, &ifm, &w).unwrap();
        let resp = server.submit(id, ifm).unwrap().wait().unwrap();
        assert_eq!(resp.output, golden);
        assert!(resp.report.cycles > 0);
        let stats = server.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.worker_exits, vec![WorkerExit::Clean, WorkerExit::Clean]);
    }

    #[test]
    fn unknown_model_and_bad_shape_are_rejected() {
        let server = Server::start(config().with_workers(0));
        assert_eq!(
            server.submit(ModelId(7), Tensor::zeros(1, 1, 1)).unwrap_err(),
            ServeError::UnknownModel
        );
        let layer = ConvLayer::pointwise("pw", 4, 4, 4, 4);
        let id = server.register("m", layer.clone(), layer.random_weights(1)).unwrap();
        let err = server.submit(id, Tensor::zeros(4, 2, 4)).unwrap_err();
        assert!(matches!(err, ServeError::ShapeMismatch { .. }));
        let _ = server.shutdown();
    }

    #[test]
    fn bad_weight_shape_is_rejected_at_registration() {
        let server = Server::start(config().with_workers(0));
        let layer = ConvLayer::depthwise("dw", 3, 8, 8, 3, 1, 1);
        let err = server.register("m", layer, Tensor::zeros(3, 2, 2)).unwrap_err();
        assert!(matches!(err, ServeError::ShapeMismatch { .. }));
        let _ = server.shutdown();
    }

    #[test]
    fn model_name_round_trips() {
        let server = Server::start(config().with_workers(0));
        let layer = ConvLayer::pointwise("pw", 4, 4, 4, 4);
        let id = server
            .register("mobilenet.pw1", layer.clone(), layer.random_weights(1))
            .unwrap();
        assert_eq!(server.model_name(id).as_deref(), Some("mobilenet.pw1"));
        assert_eq!(server.model_name(ModelId(9)), None);
        let _ = server.shutdown();
    }

    #[test]
    fn zero_deadline_is_rejected_at_submit() {
        let server = Server::start(config().with_workers(0));
        let layer = ConvLayer::pointwise("pw", 4, 4, 4, 4);
        let id = server.register("m", layer.clone(), layer.random_weights(1)).unwrap();
        let err = server
            .submit_with_deadline(id, Tensor::random(4, 4, 4, 1), Some(Duration::ZERO))
            .unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded);
        let stats = server.shutdown();
        assert_eq!(stats.rejected_deadline, 1);
        assert_eq!(stats.submitted, 0, "a rejected request never counts as submitted");
    }

    #[test]
    fn dropped_ticket_tombstones_its_slot() {
        let (tx, ticket) = reply_pair();
        drop(ticket);
        assert_eq!(
            tx.send(Err(ServeError::WorkerLost)),
            Delivery::Abandoned,
            "a reply to an abandoned ticket must be dropped"
        );
    }

    #[test]
    fn dropped_sender_surfaces_as_worker_lost() {
        let (tx, ticket) = reply_pair();
        drop(tx);
        assert_eq!(ticket.wait().unwrap_err(), ServeError::WorkerLost);
    }

    #[test]
    fn late_reply_to_abandoned_ticket_is_counted() {
        // Zero workers: the request sits queued; dropping its ticket
        // abandons it, so the shutdown shed becomes a late reply.
        let server = Server::start(config().with_workers(0));
        let layer = ConvLayer::pointwise("pw", 4, 4, 4, 4);
        let id = server.register("m", layer.clone(), layer.random_weights(1)).unwrap();
        let ticket = server.submit(id, Tensor::random(4, 4, 4, 2)).unwrap();
        drop(ticket);
        let stats = server.shutdown();
        assert_eq!(stats.late_replies, 1);
        assert_eq!(stats.rejected_shutdown, 1);
    }

    #[test]
    fn wait_timeout_races_preemption_to_a_terminal_outcome() {
        // Satellite: a ticket polled with `wait_timeout` while the liveness
        // layer preempts its gray-failed batch must converge — either a
        // retried bit-exact reply or a typed terminal error — never
        // `ReplyTimeout` forever. Budget-only preemption (watchdog_slack 0)
        // keeps the test free of wall-clock calibration flake: every run
        // draws a temporal fault (rate 1.0) sized to blow a 1.2× cycle
        // budget, so every attempt surfaces `Preempted` deterministically.
        use crate::config::ChaosConfig;
        let chaos = ChaosConfig {
            fault_seed: Some(0xC0FFEE),
            gray_rate: 1.0,
            gray_stall_cycles: 50_000,
            gray_slowdown_factor: 4,
            ..ChaosConfig::default()
        };
        let server = Server::start(
            config()
                .with_workers(1)
                .with_max_retries(2)
                .with_restart_budget(100)
                .with_restart_backoff(Duration::ZERO)
                .with_cycle_budget(1.2)
                .with_chaos(chaos),
        );
        let layer = ConvLayer::pointwise("pw", 4, 4, 4, 4);
        let w = layer.random_weights(1);
        let id = server.register("m", layer.clone(), w.clone()).unwrap();
        let ifm = Tensor::random(4, 4, 4, 5);
        let golden = npcgra_nn::reference::run_layer(&layer, &ifm, &w).unwrap();
        let ticket = server.submit(id, ifm).unwrap();
        let cap = Instant::now() + Duration::from_secs(60);
        let outcome = loop {
            assert!(Instant::now() < cap, "ticket never resolved: liveness hole");
            match ticket.wait_timeout(Duration::from_millis(10)) {
                Err(ServeError::ReplyTimeout { .. }) => continue,
                other => break other,
            }
        };
        match outcome {
            // A retry squeaked through (stall/slowdown under budget):
            // delivered replies must still be bit-exact.
            Ok(resp) => assert_eq!(resp.output, golden),
            // Terminal and typed: the preemption surfaced through the
            // retry ladder, it did not strand the ticket.
            Err(e) => assert!(
                !matches!(e, ServeError::ReplyTimeout { .. }),
                "terminal outcome must be typed, got {e}"
            ),
        }
        let stats = server.shutdown();
        assert!(stats.watchdog_preemptions > 0, "cycle-budget preemptions must be counted");
    }

    #[test]
    fn wait_timeout_then_wait_still_redeems() {
        // Zero workers: nothing drains, so the timeout path is exercised
        // deterministically; shutdown then sheds with ShuttingDown.
        let server = Server::start(config().with_workers(0));
        let layer = ConvLayer::pointwise("pw", 4, 4, 4, 4);
        let id = server.register("m", layer.clone(), layer.random_weights(1)).unwrap();
        let ticket = server.submit(id, Tensor::random(4, 4, 4, 3)).unwrap();
        let err = ticket.wait_timeout(Duration::from_millis(5)).unwrap_err();
        assert!(matches!(err, ServeError::ReplyTimeout { .. }));
        let _ = server.shutdown();
        assert_eq!(ticket.wait().unwrap_err(), ServeError::ShuttingDown);
    }

    /// A worker-less server holding `n` queued requests for one model, so
    /// a test can call [`next_work`] on its `Shared` as a worker would.
    fn queued(config: ServeConfig, n: u64) -> (Server, Vec<Ticket>) {
        let server = Server::start(config.with_workers(0));
        let layer = ConvLayer::pointwise("pw", 4, 4, 4, 4);
        let id = server.register("m", layer.clone(), layer.random_weights(1)).unwrap();
        let tickets = (0..n)
            .map(|i| server.submit(id, Tensor::random(4, 4, 4, i)).unwrap())
            .collect();
        (server, tickets)
    }

    #[test]
    fn default_dispatch_takes_a_lone_request_without_sleeping() {
        let (server, _tickets) = queued(ServeConfig::for_spec(&CgraSpec::np_cgra(4, 4)), 1);
        let (_, items, slept) = next_work(&server.shared).expect("one request is queued");
        assert_eq!(items.len(), 1);
        assert!(!slept, "a queued request is ready at once: dispatch is work-conserving");
        let _ = server.shutdown();
    }

    #[test]
    fn default_dispatch_batches_the_queued_backlog() {
        let (server, _tickets) = queued(ServeConfig::for_spec(&CgraSpec::np_cgra(4, 4)), 3);
        let (_, items, slept) = next_work(&server.shared).expect("three requests are queued");
        assert_eq!(items.len(), 3, "the backlog below max_batch leaves as one batch");
        assert!(!slept);
        let _ = server.shutdown();
    }

    #[test]
    fn opt_in_linger_holds_a_lone_request() {
        let linger = Duration::from_millis(20);
        let config = ServeConfig::for_spec(&CgraSpec::np_cgra(4, 4)).with_max_linger(linger);
        let (server, _tickets) = queued(config, 1);
        let (_, items, slept) = next_work(&server.shared).expect("one request is queued");
        assert!(items[0].enqueued.elapsed() >= linger, "a partial batch waits out the linger");
        assert!(slept);
        let _ = server.shutdown();
    }
}
