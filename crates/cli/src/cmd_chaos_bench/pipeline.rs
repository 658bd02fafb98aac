//! The two whole-model modes: `--pipeline` (checkpointed failover) and
//! `--pipeline --overload` (the overload/liveness umbrella on a faulted
//! pipeline). Both serve the MobileNetV1 DSC chain through the stage-level
//! fault-domain `Pipeline` and audit against the single-machine golden
//! chain.

use std::time::Duration;

use npcgra::nn::{models, reference, ConvLayer, Tensor};
use npcgra::serve::{OverloadConfig, Pipeline, PipelineStatsSnapshot, Priority, ServeConfig, StageFault};
use npcgra::sim::CompiledModel;

use super::harness::{self, Common, Tally, ALPHA, DELAY_TARGET, HANG_CAP, RES};
use super::single::{CYCLE_BUDGET, WATCHDOG_SLACK};
use crate::args::Flags;

/// The compiled chain, its weights and the layers the golden chain folds.
struct Chain {
    layers: Vec<ConvLayer>,
    model: CompiledModel,
    weights: Vec<Tensor>,
}

impl Chain {
    /// Compile the chain into `--stages` balanced stages (the chain's unit
    /// count may cap it).
    fn compile(flags: &Flags, common: &Common) -> Result<Chain, String> {
        let stages: usize = flags.parse_or("stages", 4)?;
        if stages < 2 {
            return Err(format!("--pipeline needs --stages >= 2, got {stages}"));
        }
        let layers: Vec<ConvLayer> = models::mobilenet_v1(ALPHA, RES).dsc_layers().cloned().collect();
        let model = CompiledModel::compile("mobilenet_v1", &layers, &common.spec, stages)
            .map_err(|e| format!("compiling the pipeline model: {e}"))?;
        if model.num_stages() < 2 {
            return Err(format!(
                "the chain only supports {} stage(s) — too short for the soak",
                model.num_stages()
            ));
        }
        let weights = layers
            .iter()
            .enumerate()
            .map(|(i, l)| l.random_weights(0xC0FFEE + i as u64))
            .collect();
        Ok(Chain { layers, model, weights })
    }

    /// The healing posture both modes share: no restarts, so a failed
    /// stage goes straight to its spare; checkpoints at `every` boundaries.
    fn config(&self, flags: &Flags, common: &Common, every: usize) -> Result<ServeConfig, String> {
        Ok(ServeConfig::for_spec(&common.spec)
            .with_backend_tier(common.tier)
            .with_pipeline_stages(self.model.num_stages())
            .with_stage_spares(flags.parse_or("spares", 1)?)
            .with_checkpoint_every(every)
            .with_restart_budget(0)
            .with_restart_backoff(Duration::from_micros(100))
            .with_max_retries(4))
    }

    fn start(&self, phase: &str, config: ServeConfig) -> Result<Pipeline, String> {
        Pipeline::start(config, self.model.clone(), self.weights.clone()).map_err(|e| format!("{phase}: start: {e}"))
    }

    fn input(&self, seed: u64) -> Tensor {
        let (c, h, w) = self.model.input_shape();
        Tensor::random(c, h, w, seed)
    }

    /// The single-machine golden run of the whole chain.
    fn golden(&self, input: &Tensor) -> Tensor {
        self.layers.iter().zip(&self.weights).fold(input.clone(), |act, (l, w)| {
            reference::run_layer(l, &act, w).expect("golden reference")
        })
    }

    /// `n` inferences with nothing else in flight, each of which must
    /// complete bit-exact (hung, shed and wrong all fail the phase).
    fn sequential(&self, phase: &str, pipe: &Pipeline, n: u64, seed: u64) -> Result<(), String> {
        for i in 0..n {
            let input = self.input(seed + i);
            let golden = self.golden(&input);
            let ticket = pipe
                .submit_with_priority(input, None, Priority::Batch)
                .map_err(|e| format!("{phase}: submit {i}: {e}"))?;
            match harness::redeem(&ticket, HANG_CAP) {
                None => return Err(format!("{phase}: inference {i} never resolved — a stage wedged silently")),
                Some(Err(e)) => return Err(format!("{phase}: inference {i}: {e}")),
                Some(Ok(resp)) if resp.output != golden => {
                    return Err(format!("{phase}: inference {i} diverged from the golden run"));
                }
                Some(Ok(_)) => {}
            }
        }
        Ok(())
    }
}

/// The fault that hits `stage` on its `job`-th pass.
fn fault(stage: usize, job: u64) -> StageFault {
    StageFault { stage, job }
}

/// Pipeline failover soak: a zero-fault control phase, then a phase with
/// one fault of each class at distinct stages and soak points — a stage
/// kill (panic), a stage wedge (preempted by the cycle budget) and a
/// handoff corruption (caught by the forwarded checksum). This is the
/// zero-overload control of the combined mode: no deadlines, no brownout,
/// no watchdog — healing alone carries it.
pub fn run_pipeline(flags: &Flags, common: &Common) -> Result<(), String> {
    let checkpoint_every: usize = flags.parse_or("checkpoint-every", 1)?;
    let requests: u64 = flags.parse_or("requests", 24)?;
    if requests < 4 {
        return Err(format!("--pipeline needs --requests >= 4, got {requests}"));
    }
    let chain = Chain::compile(flags, common)?;
    let stages = chain.model.num_stages();
    let base = chain
        .config(flags, common, checkpoint_every)?
        .with_cycle_budget(CYCLE_BUDGET)
        .with_queue_capacity(requests as usize + 8);
    let kill = fault(1, requests / 4);
    let wedge = fault((stages / 2).max(1), requests / 2);
    let corrupt = fault(stages - 1, requests * 3 / 4);
    let mut faulted = base;
    faulted.chaos.stage_kill = Some(kill);
    faulted.chaos.stage_wedge = Some(wedge);
    faulted.chaos.stage_corrupt = Some(corrupt);
    println!(
        "chaos-bench --pipeline: {} layers in {stages} stage(s) over a {}x{} machine, {requests} inferences \
         per phase, {} spare(s)/stage, checkpoint every {checkpoint_every}, cycle budget {CYCLE_BUDGET}x",
        chain.model.num_layers(),
        common.spec.rows,
        common.spec.cols,
        base.stage_spares,
    );
    println!(
        "  faults: kill stage {} @ job {}, wedge stage {} @ job {}, corrupt handoff into stage {} @ job {}",
        kill.stage, kill.job, wedge.stage, wedge.job, corrupt.stage, corrupt.job,
    );

    let inputs: Vec<Tensor> = (0..requests).map(|i| chain.input(0x717E + i)).collect();
    let goldens: Vec<Tensor> = inputs.iter().map(|input| chain.golden(input)).collect();
    let mut phases: Vec<PipelineStatsSnapshot> = Vec::new();
    for (phase, config) in [("control", base), ("faulted", faulted)] {
        let pipe = chain.start(phase, config)?;
        // Everything is submitted before anything is redeemed, so every
        // fault lands with work in flight on both sides of it.
        let tickets: Vec<_> = inputs
            .iter()
            .map(|input| pipe.submit(input.clone()).map_err(|e| format!("{phase}: submit: {e}")))
            .collect::<Result<_, _>>()?;
        let mut tally = Tally::default();
        for (ticket, golden) in tickets.iter().zip(&goldens) {
            tally.record(harness::redeem(ticket, HANG_CAP), |out| out == golden);
        }
        let stats = pipe.shutdown();
        println!("--- {phase} phase ---\n{stats}");
        harness::sound(tally.hung, tally.wrong, &[]).map_err(|e| format!("{phase}: {e}"))?;
        if tally.delivered != requests {
            return Err(format!(
                "{phase}: only {}/{requests} inference(s) completed — in-flight work was lost",
                tally.delivered
            ));
        }
        phases.push(stats);
    }

    let (control, chaos) = (&phases[0], &phases[1]);
    if flags.has("assert-liveness") {
        if control.total_failovers() != 0 || control.total_replays() != 0 || control.checkpoint_restores != 0 {
            return Err(format!(
                "assert-liveness: the zero-fault control phase touched the healing machinery \
                 ({} failover(s), {} replay(s), {} restore(s))",
                control.total_failovers(),
                control.total_replays(),
                control.checkpoint_restores
            ));
        }
        if chaos.panics_caught != 1 || chaos.preemptions < 1 || chaos.handoff_corruptions != 1 {
            return Err(format!(
                "assert-liveness: not every fault class landed ({} panic(s), {} preemption(s), \
                 {} handoff corruption(s))",
                chaos.panics_caught, chaos.preemptions, chaos.handoff_corruptions
            ));
        }
        if chaos.total_failovers() != 2 {
            return Err(format!(
                "assert-liveness: the kill and the wedge must each fail over once under a zero \
                 restart budget, got {:?}",
                chaos.stage_failovers
            ));
        }
        if chaos.stage_replays.first().copied().unwrap_or(0) != 0 {
            return Err(format!(
                "assert-liveness: stage 0 replayed — healing did not start from the last checkpoint \
                 (replays {:?})",
                chaos.stage_replays
            ));
        }
        if chaos.checkpoint_restores < 3 {
            return Err(format!(
                "assert-liveness: expected one restore per injected fault, got {}",
                chaos.checkpoint_restores
            ));
        }
    }
    println!(
        "chaos-bench --pipeline PASS: {requests}+{requests} inferences bit-exact, 0 unresolved; faulted phase: \
         {} failover(s), replays/stage {:?}, {} restore(s)",
        chaos.total_failovers(),
        chaos.stage_replays,
        chaos.checkpoint_restores
    );
    Ok(())
}

/// CoDel window over stage-queue sojourns.
const DELAY_WINDOW: Duration = Duration::from_millis(50);
/// From the `CapBatch` rung up, admission rejects while any stage queue
/// holds this many jobs.
const STAGE_INFLIGHT_CAP: usize = 2;
/// The sequential warm-up on the soak pipeline, and the jobs in it that
/// draw the two faults: four healthy passes arm a stage's watchdog, so
/// after eight every stage's wall estimate is calibrated.
const WARMUP: u64 = 12;
const WEDGE_JOB: u64 = 8;
const KILL_JOB: u64 = 10;
/// Distinct inputs the open-loop drive cycles. Their goldens are computed
/// once, so the audit of every delivered reply stays O(1) at fast-tier
/// request volumes.
const POOL: u64 = 16;

/// Combined whole-model soak, three phases. *Control*: sequential healthy
/// traffic with stage watchdogs and the brownout ladder armed — any
/// preemption or ladder transition is a false positive. *Calibration* on a
/// plain pipeline (the service rate, not the brownout policy). *Soak*: one
/// pipeline with a stage wedge and a stage kill injected and the watchdog
/// as the only preemption path (no cycle budget) takes a sequential
/// warm-up that calibrates the per-stage wall estimates and lands both
/// faults, then the open-loop mixed-priority drive.
///
/// The mode validates overload/liveness *policy*, not cycle timing, so it
/// defaults to the fast tier: whole-model capacity is orders of magnitude
/// higher, which gives the 99 % assertion statistical volume and keeps
/// CoDel's windows densely sampled.
pub fn run_pipeline_overload(flags: &Flags, common: &Common) -> Result<(), String> {
    let requests: u64 = flags.parse_or("requests", 16)?;
    if requests < WARMUP {
        return Err(format!("--pipeline --overload needs --requests >= {WARMUP}, got {requests}"));
    }
    let chain = Chain::compile(flags, common)?;
    let stages = chain.model.num_stages();
    let plain = chain.config(flags, common, 1)?.with_queue_capacity(1024);
    let mut base = plain
        .with_overload(OverloadConfig {
            delay_target: Some(DELAY_TARGET),
            delay_window: DELAY_WINDOW,
        })
        .with_watchdog_slack(WATCHDOG_SLACK);
    base.stage_inflight_cap = STAGE_INFLIGHT_CAP;
    let wedge = fault((stages / 2).max(1), WEDGE_JOB);
    let kill = fault(1, KILL_JOB);
    let mut faulted = base;
    faulted.chaos.stage_wedge = Some(wedge);
    faulted.chaos.stage_kill = Some(kill);
    println!(
        "chaos-bench --pipeline --overload: {} layers in {stages} stage(s) over a {}x{} machine ({} tier); \
         watchdog slack {WATCHDOG_SLACK}x (no cycle budget), CoDel target {}us window {}ms, \
         wedge stage {} @ job {}, kill stage {} @ job {}",
        chain.model.num_layers(),
        common.spec.rows,
        common.spec.cols,
        common.tier,
        DELAY_TARGET.as_micros(),
        DELAY_WINDOW.as_millis(),
        wedge.stage,
        wedge.job,
        kill.stage,
        kill.job,
    );

    let control_pipe = chain.start("control", base)?;
    chain.sequential("control", &control_pipe, requests, 0xA11CE)?;
    let control = control_pipe.shutdown();
    println!("--- control phase ---\n{control}");
    if control.watchdog_preemptions > 0 {
        return Err(format!(
            "control: {} stage-watchdog preemption(s) on healthy sequential traffic — the watchdog misfires",
            control.watchdog_preemptions
        ));
    }
    if control.brownout_escalations > 0 || control.overload_sheds.iter().sum::<u64>() > 0 {
        return Err(format!(
            "control: the brownout ladder engaged with no overload ({} escalation(s), {:?} shed(s))",
            control.brownout_escalations, control.overload_sheds
        ));
    }
    if control.total_failovers() != 0 || control.total_replays() != 0 || control.deadline_sheds != 0 {
        return Err("control: healing/deadline machinery engaged on a healthy unloaded pipeline".to_string());
    }

    let calib_pipe = chain.start("calibration", plain)?;
    let capacity_rps = harness::calibrate("pipeline", common.clients, |c, r| {
        harness::answered(calib_pipe.submit(chain.input(0xCA1B + (c * 1_000_000 + r) as u64)))
    })?;
    let _ = calib_pipe.shutdown();
    let offered_rps = common.announce_drive("pipeline capacity", "inf", capacity_rps);

    // The wedge is preempted on the wall clock by the stage watchdog and
    // the kill is a supervised panic; both heal via the stage spare, and
    // the drive then runs on the same, healed pipeline.
    let pipe = chain.start("soak", faulted)?;
    chain.sequential("warm-up", &pipe, WARMUP, 0x3A7)?;
    let pool: Vec<(Tensor, Tensor)> = (0..POOL)
        .map(|k| {
            let input = chain.input(0x000D_21FE_0000 + k);
            let golden = chain.golden(&input);
            (input, golden)
        })
        .collect();
    let (classes, tally) = harness::drive_and_audit(
        common,
        offered_rps,
        |due| pipe.submit_with_priority(pool[due.g % pool.len()].0.clone(), due.deadline, due.class),
        |g, out| *out == pool[g % pool.len()].1,
    );
    let stats = pipe.shutdown();
    println!("--- soak phase ---\n{stats}");
    println!("pipeline overload: {}", classes.summary(common.slo));

    harness::sound(tally.hung, tally.wrong, &[])?;
    if flags.has("assert-slo") {
        if stats.watchdog_preemptions == 0 {
            return Err("assert-slo: the stage watchdog never preempted the injected wedge".to_string());
        }
        if stats.panics_caught != 1 {
            return Err(format!(
                "assert-slo: the injected stage kill was not contained (panics caught: {})",
                stats.panics_caught
            ));
        }
        if stats.total_failovers() < 2 {
            return Err(format!(
                "assert-slo: the wedge and the kill must each fail over to a spare, got {:?}",
                stats.stage_failovers
            ));
        }
        if stats.brownout_escalations == 0 {
            return Err(
                "assert-slo: the drive never pushed the pipeline into brownout — raise --overload-factor or --seconds"
                    .to_string(),
            );
        }
        harness::slo_gate(&classes, stats.overload_sheds.iter().sum(), common.slo)?;
    }
    println!(
        "chaos-bench --pipeline --overload PASS: {} offered at {:.1}x capacity, 0 hung, 0 wrong; \
         interactive SLO attainment {:.2}%; {} watchdog preemption(s), {} failover(s), brownout {} up / {} down",
        classes.offered(),
        common.factor,
        classes.attainment() * 100.0,
        stats.watchdog_preemptions,
        stats.total_failovers(),
        stats.brownout_escalations,
        stats.brownout_deescalations,
    );
    Ok(())
}
