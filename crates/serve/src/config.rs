//! Server configuration.

use std::time::Duration;

use npcgra_arch::CgraSpec;
use npcgra_nn::Word;
use npcgra_sim::BackendTier;

/// A one-shot, deterministic pipeline-stage fault trigger: when the named
/// stage picks up the job with this submit ordinal, the configured failure
/// fires exactly once. Keying on the ordinal (not time) makes chaos soaks
/// reproducible: the same trigger hits the same inference every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageFault {
    /// Which pipeline stage the fault fires in.
    pub stage: usize,
    /// The submit ordinal (0-based) of the job that trips it.
    pub job: u64,
}

/// Which side of the fast-tier cross-check to corrupt (chaos knob): the
/// supervisor replays a sampled fast-tier batch on a scratch cycle-accurate
/// machine and quarantines the shard on *any* divergence — these inject one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossCheckCorruption {
    /// Flip one bit of the sampled output before the replay compares it.
    OutputBit,
    /// Skew the sampled charged-cycle count by one.
    ChargedCycles,
}

/// Chaos-engineering knobs: deliberate failures injected into the serving
/// path so the supervision, retry and quarantine machinery can be exercised
/// deterministically. All knobs default to "off"; a production config never
/// sets them.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosConfig {
    /// Make this worker shard panic on its first executed batch (the
    /// supervisor must catch it, restart the shard and retry the batch).
    pub panic_on_first_batch: Option<usize>,
    /// Treat any request whose input word at `(0, 0, 0)` equals this
    /// sentinel as poison: executing a batch containing it fails, driving
    /// the bisect-and-quarantine path.
    pub poison_value: Option<Word>,
    /// Seed for the per-shard [`FaultPlan`](npcgra_sim::FaultPlan)
    /// (deterministic transient bit flips in the simulated hardware).
    /// `None` disables fault injection even when `fault_rate > 0`.
    pub fault_seed: Option<u64>,
    /// Per-`(tile, cycle)` fault probability for the Bernoulli plan.
    pub fault_rate: f64,
    /// Per-`(tile, cycle)` probability of a *temporal* (gray) fault —
    /// a stall, slowdown or wedge drawn from the same seeded plan
    /// ([`FaultPlan::gray`](npcgra_sim::FaultPlan::gray)). `0.0` disables
    /// gray injection; like `fault_rate`, it needs `fault_seed`.
    pub gray_rate: f64,
    /// Cycles a drawn [`TemporalFault::Stall`](npcgra_sim::TemporalFault)
    /// burns before the tile resumes.
    pub gray_stall_cycles: u64,
    /// Cycle-cost multiplier a drawn
    /// [`TemporalFault::Slowdown`](npcgra_sim::TemporalFault) applies to
    /// the rest of its tile.
    pub gray_slowdown_factor: u32,
    /// Pipeline chaos: panic the stage shard while it executes the
    /// triggering job (the stage supervisor must catch it and heal from
    /// the last checkpoint on a rebuilt or spare shard).
    pub stage_kill: Option<StageFault>,
    /// Pipeline chaos: wedge the stage shard on the triggering job (a
    /// [`TemporalFault::Wedge`](npcgra_sim::TemporalFault) that the armed
    /// cycle budget converts into a typed preemption).
    pub stage_wedge: Option<StageFault>,
    /// Pipeline chaos: flip one bit of the triggering job's inter-stage
    /// activation before the stage's entry checksum verifies it (exercises
    /// the checksum-forwarding handoff-integrity path).
    pub stage_corrupt: Option<StageFault>,
    /// Fast-tier chaos: corrupt one side of a sampled cross-check so the
    /// divergence→quarantine path can be exercised deterministically.
    pub cross_check_corrupt: Option<CrossCheckCorruption>,
}

/// Overload-control knobs: the CoDel admission pair. The defaults keep
/// CoDel admission *off* (see the README's overload table).
///
/// Both lifecycles read the pair: a [`Server`](crate::Server) samples its
/// admission queue, a [`Pipeline`](crate::Pipeline) its *stage-queue*
/// residence times. Priority classes dequeue by the fixed
/// [`CLASS_WEIGHTS`](crate::overload::CLASS_WEIGHTS) in both.
#[derive(Debug, Clone, Copy)]
pub struct OverloadConfig {
    /// CoDel delay target: when the sliding-window *minimum* queue sojourn
    /// stays above this, the brownout ladder climbs one rung per window.
    /// `None` disables adaptive admission (the ladder stays at Normal).
    pub delay_target: Option<Duration>,
    /// The CoDel sliding window over which the minimum sojourn is tracked.
    pub delay_window: Duration,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            delay_target: None,
            delay_window: Duration::from_millis(10),
        }
    }
}

/// Configuration for a [`Server`](crate::Server) or a
/// [`Pipeline`](crate::Pipeline) — the one surface either lifecycle reads.
/// A config value is handed to one `start` or the other, so knobs both
/// understand (`queue_capacity`, `overload.delay_*`, `watchdog_slack`,
/// `cycle_budget`, the restart ladder, `chaos`) exist once.
///
/// The defaults describe a small deployment: four worker shards of the
/// paper's Table 4 NP-CGRA, work-conserving dispatch that coalesces up to
/// four same-model requests from whatever backlog is queued when a worker
/// frees up, and a bounded queue of 256 requests.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Machine spec each worker shard simulates.
    pub spec: CgraSpec,
    /// Number of worker shards, each owning one simulated machine.
    ///
    /// `0` is allowed and means "no drain": every accepted request stays
    /// queued until [`shutdown`](crate::Server::shutdown) rejects it. Useful
    /// for deterministic admission-control tests.
    pub workers: usize,
    /// Maximum requests queued (over all models) before admission control
    /// sheds load with [`ServeError::QueueFull`](crate::ServeError::QueueFull).
    pub queue_capacity: usize,
    /// Maximum same-model requests coalesced into one batched simulator run.
    pub max_batch: usize,
    /// How long a request may linger at the head of its queue waiting for
    /// batch-mates before a worker runs a partial batch. `ZERO` (the
    /// default) is work-conserving: a free worker takes the oldest queued
    /// request at once, with whatever same-model backlog has built up
    /// behind it. A positive value is an opt-in wait that trades latency
    /// for fuller batches.
    pub max_linger: Duration,
    /// Per-request execution-attempt cap: a request that has failed this
    /// many re-executions (batch bisections included) is quarantined.
    pub max_retries: u32,
    /// Worker-shard panics survived before the supervisor gives the shard
    /// up as unhealthy (each survived panic is one restart).
    pub restart_budget: u32,
    /// Base supervisor backoff after a caught panic; doubles per
    /// consecutive restart of the shard, capped at 64× the base.
    pub restart_backoff: Duration,
    /// Run a canary self-test (a small golden layer with known outputs) on
    /// each shard every this-many batches; a shard failing it twice in a
    /// row is retired as [`WorkerExit::Unhealthy`](crate::WorkerExit::Unhealthy).
    /// `0` disables the canary.
    pub canary_interval: u64,
    /// Overload control: CoDel admission, read by both lifecycles (see
    /// [`OverloadConfig`]).
    pub overload: OverloadConfig,
    /// Watchdog slack: a running batch — or, in a
    /// [`Pipeline`](crate::Pipeline), a running stage pass — is preempted
    /// (its shard's [`CancelToken`](npcgra_sim::CancelToken) cancelled)
    /// once its wall time exceeds `predicted cycles × observed
    /// ns-per-cycle × slack`. The wall deadline only arms after the
    /// ns-per-cycle estimate has calibrated on a few healthy runs. `0.0`
    /// disables the watchdog thread entirely (the default).
    pub watchdog_slack: f64,
    /// Deterministic liveness backstop: each simulator block run gets a
    /// cycle budget of `block compute cycles × cycle_budget`; exceeding it
    /// fails the run with a typed, retryable error. Unlike the wall-clock
    /// watchdog it needs no calibration and is immune to host scheduling
    /// noise. `0.0` disables it (the default).
    pub cycle_budget: f64,
    /// Which execution tier each worker shard runs
    /// ([`BackendTier::CycleAccurate`] by default, so untouched
    /// configurations behave exactly as before tiers existed;
    /// [`BackendTier::Fast`] charges cycles from the closed-form latency
    /// models instead of simulating them — see
    /// [`npcgra_sim::exec`]).
    pub backend_tier: BackendTier,
    /// Under [`BackendTier::Fast`], replay one recent fast-tier batch on a
    /// scratch cycle-accurate machine every this-many batches per shard;
    /// *any* divergence (output bits or charged cycles) quarantines the
    /// shard. `0` disables cross-checking. Ignored on the cycle tier.
    pub cross_check_interval: u64,
    /// The caller's stage-count argument to
    /// [`CompiledModel::compile`](npcgra_sim::CompiledModel::compile) (which
    /// clamps it to the model's fused-unit count), parked here so it
    /// travels with the rest of the deployment. Nothing in this crate reads
    /// it: a [`Pipeline`](crate::Pipeline) serves however many stages the
    /// compiled model it is started with has. Kept only because the
    /// benchmark calls `with_pipeline_stages`.
    pub pipeline_stages: usize,
    /// Spare shards each pipeline stage may fail over to after exhausting
    /// its restart budget; with all spares consumed the stage goes dead and
    /// whole-model traffic is shed (before any single-layer traffic).
    pub stage_spares: usize,
    /// Checkpoint every Nth inter-stage boundary (the verified activation
    /// plus its checksum ride with the job): `1` checkpoints every handoff,
    /// larger values trade replay distance for copy overhead. The pipeline
    /// input (boundary 0) is always checkpointed, so `0` means "input only".
    pub checkpoint_every: usize,
    /// Pipeline per-stage in-flight cap enforced at admission while the
    /// brownout ladder sits at
    /// [`BrownoutLevel::CapBatch`](crate::BrownoutLevel) or above: a new job
    /// is rejected while any stage queue holds this many jobs. `0` derives
    /// a cap from `queue_capacity / (2 × stages)`.
    pub stage_inflight_cap: usize,
    /// Deliberate failure injection (off by default).
    pub chaos: ChaosConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            spec: CgraSpec::table4(),
            workers: 4,
            queue_capacity: 256,
            max_batch: 4,
            max_linger: Duration::ZERO,
            max_retries: 4,
            restart_budget: 3,
            restart_backoff: Duration::from_millis(1),
            canary_interval: 0,
            overload: OverloadConfig::default(),
            watchdog_slack: 0.0,
            cycle_budget: 0.0,
            backend_tier: BackendTier::CycleAccurate,
            cross_check_interval: 32,
            pipeline_stages: 4,
            stage_spares: 1,
            checkpoint_every: 1,
            stage_inflight_cap: 0,
            chaos: ChaosConfig::default(),
        }
    }
}

impl ServeConfig {
    /// The default configuration over a given machine spec.
    #[must_use]
    pub fn for_spec(spec: &CgraSpec) -> Self {
        ServeConfig {
            spec: *spec,
            ..ServeConfig::default()
        }
    }

    /// Set the worker-shard count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the admission-control queue bound.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Set the maximum dynamic batch size.
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Set the batching linger window (`ZERO` = work-conserving dispatch).
    #[must_use]
    pub fn with_max_linger(mut self, linger: Duration) -> Self {
        self.max_linger = linger;
        self
    }

    /// Set the per-request execution-attempt cap.
    #[must_use]
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Set the per-shard restart budget.
    #[must_use]
    pub fn with_restart_budget(mut self, budget: u32) -> Self {
        self.restart_budget = budget;
        self
    }

    /// Set the base supervisor restart backoff.
    #[must_use]
    pub fn with_restart_backoff(mut self, backoff: Duration) -> Self {
        self.restart_backoff = backoff;
        self
    }

    /// Set the canary self-test interval in batches (`0` = off).
    #[must_use]
    pub fn with_canary_interval(mut self, interval: u64) -> Self {
        self.canary_interval = interval;
        self
    }

    /// Set the overload-control knobs.
    #[must_use]
    pub fn with_overload(mut self, overload: OverloadConfig) -> Self {
        self.overload = overload;
        self
    }

    /// Set the batch/stage-watchdog wall-clock slack (`0.0` = no watchdog).
    #[must_use]
    pub fn with_watchdog_slack(mut self, slack: f64) -> Self {
        self.watchdog_slack = slack;
        self
    }

    /// Set the per-block cycle-budget multiplier (`0.0` = no budget).
    #[must_use]
    pub fn with_cycle_budget(mut self, budget: f64) -> Self {
        self.cycle_budget = budget;
        self
    }

    /// Set the chaos (failure-injection) knobs.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }

    /// Select the execution tier worker shards run on.
    #[must_use]
    pub fn with_backend_tier(mut self, tier: BackendTier) -> Self {
        self.backend_tier = tier;
        self
    }

    /// Set the fast-tier cross-check interval in batches (`0` = off).
    #[must_use]
    pub fn with_cross_check_interval(mut self, interval: u64) -> Self {
        self.cross_check_interval = interval;
        self
    }

    /// Set the pipeline stage count (clamped to ≥ 1).
    #[must_use]
    pub fn with_pipeline_stages(mut self, stages: usize) -> Self {
        self.pipeline_stages = stages.max(1);
        self
    }

    /// Set the per-stage spare-shard budget.
    #[must_use]
    pub fn with_stage_spares(mut self, spares: usize) -> Self {
        self.stage_spares = spares;
        self
    }

    /// Set the checkpoint stride over inter-stage boundaries (`0` =
    /// checkpoint only the pipeline input).
    #[must_use]
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes() {
        let c = ServeConfig::for_spec(&CgraSpec::np_cgra(4, 4))
            .with_workers(2)
            .with_queue_capacity(8)
            .with_max_batch(3)
            .with_max_linger(Duration::from_millis(5));
        assert_eq!(c.workers, 2);
        assert_eq!(c.queue_capacity, 8);
        assert_eq!(c.max_batch, 3);
        assert_eq!(c.max_linger, Duration::from_millis(5));
        assert_eq!(c.spec.rows, 4);
    }

    #[test]
    fn max_batch_is_at_least_one() {
        assert_eq!(ServeConfig::default().with_max_batch(0).max_batch, 1);
    }

    #[test]
    fn fault_tolerance_builders_compose() {
        let c = ServeConfig::default()
            .with_max_retries(7)
            .with_restart_budget(2)
            .with_restart_backoff(Duration::ZERO)
            .with_canary_interval(64);
        assert_eq!(c.max_retries, 7);
        assert_eq!(c.restart_budget, 2);
        assert_eq!(c.restart_backoff, Duration::ZERO);
        assert_eq!(c.canary_interval, 64);
    }

    #[test]
    fn liveness_knobs_default_off_and_compose() {
        let c = ServeConfig::default();
        assert_eq!(c.watchdog_slack, 0.0, "watchdog defaults off");
        assert_eq!(c.cycle_budget, 0.0, "cycle budget defaults off");
        let c = c.with_watchdog_slack(6.0).with_cycle_budget(8.0);
        assert_eq!(c.watchdog_slack, 6.0);
        assert_eq!(c.cycle_budget, 8.0);
    }

    #[test]
    fn integrity_defaults_to_verify_with_no_canary() {
        assert_eq!(crate::domain::SHARD_INTEGRITY, npcgra_sim::IntegrityMode::Verify);
        assert_eq!(ServeConfig::default().canary_interval, 0);
    }

    #[test]
    fn backend_tier_defaults_to_cycle_accurate_and_composes() {
        let c = ServeConfig::default();
        assert_eq!(c.backend_tier, BackendTier::CycleAccurate, "untouched configs stay golden");
        assert!(
            c.cross_check_interval > 0,
            "cross-checking defaults armed for fast-tier users"
        );
        let c = c.with_backend_tier(BackendTier::Fast).with_cross_check_interval(7);
        assert_eq!(c.backend_tier, BackendTier::Fast);
        assert_eq!(c.cross_check_interval, 7);
    }

    #[test]
    fn pipeline_knobs_default_sane_and_compose() {
        let c = ServeConfig::default();
        assert_eq!(c.pipeline_stages, 4);
        assert_eq!(c.stage_spares, 1);
        assert_eq!(c.checkpoint_every, 1, "every boundary checkpointed by default");
        let c = c.with_pipeline_stages(6).with_stage_spares(2).with_checkpoint_every(3);
        assert_eq!(c.pipeline_stages, 6);
        assert_eq!(c.stage_spares, 2);
        assert_eq!(c.checkpoint_every, 3);
        assert_eq!(ServeConfig::default().with_pipeline_stages(0).pipeline_stages, 1);
    }

    #[test]
    fn pipeline_overload_knobs_default_off_and_compose() {
        // A pipeline's overload knobs are the shared ones (covered above
        // and below) plus its own in-flight cap, which has no builder.
        let c = ServeConfig::default();
        assert_eq!(c.stage_inflight_cap, 0, "inflight cap derives from queue capacity");
        let c = ServeConfig {
            stage_inflight_cap: 4,
            ..c.with_watchdog_slack(6.0)
        };
        assert_eq!(c.stage_inflight_cap, 4);
        assert_eq!(c.watchdog_slack, 6.0, "struct update keeps prior knobs");
    }

    #[test]
    fn overload_defaults_keep_adaptive_machinery_off() {
        let c = ServeConfig::default();
        assert_eq!(c.overload.delay_target, None, "CoDel admission defaults off");
        let target = Some(Duration::from_millis(5));
        let c = c.with_overload(OverloadConfig {
            delay_target: target,
            ..c.overload
        });
        assert_eq!(c.overload.delay_target, target);
        // with_overload replaces the whole struct, so the later call wins.
        assert_eq!(c.with_overload(OverloadConfig::default()).overload.delay_target, None);
    }
}
