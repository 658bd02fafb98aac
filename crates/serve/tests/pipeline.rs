//! Whole-model pipeline serving: the failover acceptance gate.
//!
//! A real MobileNetV1 depthwise-separable chain (α = 0.25, 32×32) is
//! compiled into balanced stages and served through the [`Pipeline`] while
//! chaos injects one of each stage-fault class at a distinct soak point:
//! a stage **kill** (panic), a stage **wedge** (temporal fault preempted
//! by the cycle budget), and a **handoff corruption** (caught by the
//! forwarded checksum). The gate:
//!
//! * 100% of in-flight inferences complete **bit-exact** against the
//!   single-machine golden reference — no fault is allowed to surface to
//!   a caller.
//! * Healing replays **only from the last checkpoint**: the per-stage
//!   replay counters identify exactly which stages re-ran.
//! * Kill and wedge exhaust a zero restart budget and **fail over** to the
//!   stage's spare shard; the corruption heals by replay alone.
//! * A zero-fault control run shows zero failovers, zero replays and zero
//!   checkpoint restores — the machinery is inert when nothing breaks.

use std::time::Duration;

use npcgra_nn::{models, reference, ConvLayer, Tensor};
use npcgra_serve::{BrownoutLevel, OverloadConfig, Pipeline, Priority, ServeConfig, ServeError, Server, StageFault, Ticket};
use npcgra_sim::CompiledModel;

const STAGES: usize = 4;

fn mobilenet_chain() -> Vec<ConvLayer> {
    models::mobilenet_v1(0.25, 32).dsc_layers().cloned().collect()
}

fn pipeline_config(model: &CompiledModel) -> ServeConfig {
    ServeConfig::for_spec(model.spec())
        .with_pipeline_stages(STAGES)
        .with_restart_budget(0)
        .with_stage_spares(1)
        .with_checkpoint_every(1)
        .with_cycle_budget(8.0)
        .with_max_retries(4)
        .with_restart_backoff(Duration::ZERO)
}

fn compile(layers: &[ConvLayer]) -> (CompiledModel, Vec<Tensor>) {
    let spec = npcgra_arch::CgraSpec::np_cgra(4, 4);
    let model = CompiledModel::compile("mobilenet_v1_0.25_32", layers, &spec, STAGES).unwrap();
    let weights = layers
        .iter()
        .enumerate()
        .map(|(i, l)| l.random_weights(0xC0FFEE + i as u64))
        .collect();
    (model, weights)
}

fn golden(layers: &[ConvLayer], weights: &[Tensor], input: &Tensor) -> Tensor {
    layers
        .iter()
        .zip(weights)
        .fold(input.clone(), |act, (l, w)| reference::run_layer(l, &act, w).unwrap())
}

#[test]
fn mobilenet_pipeline_heals_kill_wedge_and_corruption_bit_exact() {
    let layers = mobilenet_chain();
    let (model, weights) = compile(&layers);
    assert_eq!(model.num_stages(), STAGES);
    let mut cfg = pipeline_config(&model);
    // One fault of each class, at distinct soak points in distinct stages.
    cfg.chaos.stage_kill = Some(StageFault { stage: 1, job: 2 });
    cfg.chaos.stage_wedge = Some(StageFault { stage: 2, job: 5 });
    cfg.chaos.stage_corrupt = Some(StageFault { stage: 3, job: 8 });

    let n = 10u64;
    let input_shape = model.input_shape();
    let inputs: Vec<Tensor> = (0..n)
        .map(|i| Tensor::random(input_shape.0, input_shape.1, input_shape.2, 0x5eed + i))
        .collect();
    let goldens: Vec<Tensor> = inputs.iter().map(|i| golden(&layers, &weights, i)).collect();

    let pipe = Pipeline::start(cfg, model, weights).unwrap();
    let tickets: Vec<Ticket> = inputs.into_iter().map(|i| pipe.submit(i).unwrap()).collect();
    for (i, (ticket, gold)) in tickets.into_iter().zip(&goldens).enumerate() {
        let response = ticket.wait().unwrap_or_else(|e| panic!("inference {i} failed: {e}"));
        assert_eq!(&response.output, gold, "inference {i} diverged from the golden run");
    }

    let stats = pipe.shutdown();
    assert_eq!(stats.completed, n, "every in-flight inference must complete");
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.shed, 0);

    // Each fault class fired exactly once and was caught as its own type.
    assert_eq!(stats.panics_caught, 1, "the stage kill was not caught as a panic");
    assert_eq!(stats.preemptions, 1, "the wedge was not preempted by the cycle budget");
    assert_eq!(
        stats.handoff_corruptions, 1,
        "the checksum never caught the corrupted handoff"
    );

    // Healing replayed only from the last checkpoint. With every boundary
    // checkpointed: the kill at stage 1 and the wedge at stage 2 each
    // replay just their own stage; the corruption — caught at stage 3
    // *entry*, before boundary 3 is checkpointed — rolls back to boundary
    // 2 and replays stages 2 and 3. Stage 0 never replays.
    assert_eq!(
        stats.stage_replays,
        vec![0, 1, 2, 1],
        "healing replayed more (or less) than the checkpoints dictate"
    );
    assert_eq!(stats.checkpoint_restores, 3);

    // Kill and wedge exhaust the zero restart budget and fail over to the
    // stage spare; corruption heals by replay with no failover.
    assert_eq!(stats.stage_failovers, vec![0, 1, 1, 0]);
    assert_eq!(stats.total_failovers(), 2);
    assert_eq!(
        stats.stage_restarts,
        vec![0, 0, 0, 0],
        "budget 0 leaves no room for in-place restarts"
    );
}

#[test]
fn zero_fault_control_run_never_touches_the_healing_machinery() {
    let layers = mobilenet_chain();
    let (model, weights) = compile(&layers);
    let cfg = pipeline_config(&model);

    let n = 4u64;
    let input_shape = model.input_shape();
    let inputs: Vec<Tensor> = (0..n)
        .map(|i| Tensor::random(input_shape.0, input_shape.1, input_shape.2, 0xC0 + i))
        .collect();
    let goldens: Vec<Tensor> = inputs.iter().map(|i| golden(&layers, &weights, i)).collect();

    let pipe = Pipeline::start(cfg, model, weights).unwrap();
    let tickets: Vec<Ticket> = inputs.into_iter().map(|i| pipe.submit(i).unwrap()).collect();
    for (ticket, gold) in tickets.into_iter().zip(&goldens) {
        assert_eq!(&ticket.wait().unwrap().output, gold);
    }
    let stats = pipe.shutdown();
    assert_eq!(stats.completed, n);
    assert_eq!(stats.total_failovers(), 0, "control run failed over");
    assert_eq!(stats.total_replays(), 0, "control run replayed a stage");
    assert_eq!(stats.checkpoint_restores, 0);
    assert_eq!(stats.handoff_corruptions, 0);
    assert_eq!(stats.preemptions, 0);
    assert_eq!(stats.panics_caught, 0);
    // Checkpoints are still *stored* (that is the premium paid for fast
    // healing): one per configured boundary per inference.
    assert!(stats.checkpoints_stored >= n);
    assert!(stats.handoff_cycles > 0, "inter-stage handoffs must charge DMA cycles");
    // The overload/liveness machinery is equally inert by default.
    assert_eq!(stats.rejected_deadline, 0);
    assert_eq!(stats.deadline_sheds, 0);
    assert_eq!(stats.watchdog_preemptions, 0);
    assert_eq!(stats.brownout_escalations, 0);
    assert_eq!(stats.overload_sheds, vec![0, 0, 0]);
}

/// Satellite regression: a zero (already-expired) deadline is rejected at
/// submit with the same typed error the single-layer [`Server`] uses —
/// before the job ever queues.
#[test]
fn zero_deadline_is_rejected_at_submit_like_the_server() {
    let layers = mobilenet_chain();
    let (model, weights) = compile(&layers);
    let cfg = pipeline_config(&model);
    let shape = model.input_shape();
    let pipe = Pipeline::start(cfg, model, weights).unwrap();

    let input = Tensor::random(shape.0, shape.1, shape.2, 0xDEAD);
    let err = pipe.submit_with_deadline(input, Some(Duration::ZERO)).unwrap_err();
    assert!(matches!(err, ServeError::DeadlineExceeded), "got {err}");

    let stats = pipe.shutdown();
    assert_eq!(stats.rejected_deadline, 1);
    assert_eq!(stats.submitted, 0, "a rejected deadline must never queue");
    assert_eq!(stats.deadline_sheds, 0, "rejected at submit, not at a boundary");
}

/// Tentpole: a job whose deadline is already unmeetable is shed at a stage
/// boundary ([`ServeError::DeadlineExceeded`]) instead of burning stages,
/// while jobs without deadlines keep completing bit-exact alongside it.
#[test]
fn expired_deadline_sheds_at_the_stage_boundary() {
    let layers = mobilenet_chain();
    let (model, weights) = compile(&layers);
    let cfg = pipeline_config(&model);
    let shape = model.input_shape();
    let golden_weights = weights.clone();
    let pipe = Pipeline::start(cfg, model, weights).unwrap();

    // 1 ns is nonzero (admitted) but long expired by the time stage 0
    // dequeues it.
    let doomed = pipe
        .submit_with_deadline(Tensor::random(shape.0, shape.1, shape.2, 1), Some(Duration::from_nanos(1)))
        .unwrap();
    let healthy_input = Tensor::random(shape.0, shape.1, shape.2, 2);
    let healthy_golden = golden(&layers, &golden_weights, &healthy_input);
    let healthy = pipe.submit(healthy_input).unwrap();

    let err = doomed.wait().unwrap_err();
    assert!(matches!(err, ServeError::DeadlineExceeded), "got {err}");
    assert_eq!(healthy.wait().unwrap().output, healthy_golden);

    let stats = pipe.shutdown();
    assert_eq!(stats.deadline_sheds, 1);
    assert_eq!(stats.shed, 1, "a deadline shed is a shed, not a failure");
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
}

/// Satellite: the server's tombstone accounting, ported — a reply whose
/// ticket was dropped is counted as a late reply instead of leaking.
#[test]
fn dropped_tickets_surface_as_late_replies() {
    let layers = mobilenet_chain();
    let (model, weights) = compile(&layers);
    let cfg = pipeline_config(&model);
    let shape = model.input_shape();
    let pipe = Pipeline::start(cfg, model, weights).unwrap();

    let n = 3u64;
    for i in 0..n {
        // Drop the ticket immediately: the caller walked away.
        let _ = pipe.submit(Tensor::random(shape.0, shape.1, shape.2, 0xAB + i)).unwrap();
    }
    let stats = pipe.shutdown();
    assert_eq!(stats.completed, n, "abandoned work still runs to completion");
    assert_eq!(stats.late_replies, n, "every abandoned reply is accounted");
}

/// Tentpole: with `watchdog_slack` armed and *no* cycle budget, a wedged
/// stage run is cancelled on the wall clock by the stage watchdog, walks
/// the failover ladder, and the inference still completes bit-exact.
#[test]
fn stage_watchdog_preempts_a_wedged_stage_and_heals() {
    let layers = vec![ConvLayer::pointwise("a", 3, 3, 8, 8), ConvLayer::pointwise("b", 3, 3, 8, 8)];
    let spec = npcgra_arch::CgraSpec::np_cgra(4, 4);
    let model = CompiledModel::compile("wedgy", &layers, &spec, 2).unwrap();
    assert_eq!(model.num_stages(), 2);
    let weights: Vec<Tensor> = layers
        .iter()
        .enumerate()
        .map(|(i, l)| l.random_weights(50 + i as u64))
        .collect();
    let mut cfg = ServeConfig::for_spec(model.spec())
        .with_pipeline_stages(2)
        .with_restart_budget(0)
        .with_stage_spares(1)
        .with_checkpoint_every(1)
        .with_restart_backoff(Duration::ZERO)
        .with_watchdog_slack(4.0);
    assert_eq!(cfg.cycle_budget, 0.0, "the wall watchdog must be the only preemption path");
    // Jobs 0..=3 calibrate each stage's ns-per-cycle estimate (4 healthy
    // passes); job 4 wedges stage 1 with the watchdog armed.
    cfg.chaos.stage_wedge = Some(StageFault { stage: 1, job: 4 });

    let pipe = Pipeline::start(cfg, model, weights.clone()).unwrap();
    for i in 0..5u64 {
        let input = Tensor::random(3, 8, 8, 400 + i);
        let gold = golden(&layers, &weights, &input);
        let out = pipe.submit(input).unwrap().wait().unwrap().output;
        assert_eq!(out, gold, "inference {i} diverged");
    }
    let stats = pipe.shutdown();
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.watchdog_preemptions, 1, "the wedge must be caught on the wall clock");
    assert_eq!(stats.preemptions, 1, "the cancel surfaced as a typed preemption");
    assert_eq!(stats.stage_failovers, vec![0, 1], "budget 0 fails straight over to the spare");
    assert_eq!(stats.stage_replays, vec![0, 1], "healing replayed only the wedged stage");
    assert_eq!(stats.panics_caught, 0);
}

/// One config surface: the same `overload.delay_*` and `watchdog_slack`
/// fields arm CoDel admission and the wall-clock watchdog in *both*
/// lifecycles, and stay inert in both under a light healthy load.
#[test]
fn one_config_arms_both_lifecycles_and_stays_inert_under_light_load() {
    let layers = vec![ConvLayer::pointwise("a", 3, 3, 8, 8), ConvLayer::pointwise("b", 3, 3, 8, 8)];
    let spec = npcgra_arch::CgraSpec::np_cgra(4, 4);
    let armed = ServeConfig::for_spec(&spec)
        .with_workers(1)
        .with_overload(OverloadConfig {
            delay_target: Some(Duration::from_millis(50)),
            delay_window: Duration::from_millis(20),
        })
        .with_watchdog_slack(64.0);
    let weights: Vec<Tensor> = layers
        .iter()
        .enumerate()
        .map(|(i, l)| l.random_weights(90 + i as u64))
        .collect();
    let inputs: Vec<Tensor> = (0..8u64).map(|i| Tensor::random(3, 8, 8, 900 + i)).collect();

    let server = Server::start(armed);
    let id = server.register("a", layers[0].clone(), weights[0].clone()).unwrap();
    for (i, input) in inputs.iter().enumerate() {
        let gold = reference::run_layer(&layers[0], input, &weights[0]).unwrap();
        let out = server.submit(id, input.clone()).unwrap().wait().unwrap().output;
        assert_eq!(out, gold, "served request {i} diverged");
    }
    let served = server.shutdown();
    assert_eq!(served.completed, inputs.len() as u64);
    assert_eq!(served.brownout_level, BrownoutLevel::Normal);
    assert_eq!(served.overload_sheds, [0, 0, 0]);
    assert_eq!(served.watchdog_preemptions, 0);

    let model = CompiledModel::compile("pair", &layers, &spec, 2).unwrap();
    let pipe = Pipeline::start(armed, model, weights.clone()).unwrap();
    for (i, input) in inputs.iter().enumerate() {
        let gold = golden(&layers, &weights, input);
        let out = pipe.submit(input.clone()).unwrap().wait().unwrap().output;
        assert_eq!(out, gold, "inference {i} diverged");
    }
    let piped = pipe.shutdown();
    assert_eq!(piped.completed, inputs.len() as u64);
    assert_eq!(piped.brownout_escalations, 0, "the pipeline ladder never left Normal");
    assert_eq!(piped.overload_sheds, vec![0, 0, 0]);
    assert_eq!(piped.watchdog_preemptions, 0);
}

/// Priority admission: mixed-class whole-model traffic all completes under
/// the stage-0 WFQ, and per-class admission is accounted.
#[test]
fn mixed_priority_classes_all_complete_under_wfq() {
    let layers = mobilenet_chain();
    let (model, weights) = compile(&layers);
    let cfg = pipeline_config(&model);
    let shape = model.input_shape();
    let golden_weights = weights.clone();
    let pipe = Pipeline::start(cfg, model, weights).unwrap();

    let classes = [
        Priority::Interactive,
        Priority::Batch,
        Priority::BestEffort,
        Priority::Batch,
        Priority::Interactive,
        Priority::BestEffort,
    ];
    let jobs: Vec<(Ticket, Tensor)> = classes
        .iter()
        .enumerate()
        .map(|(i, &class)| {
            let input = Tensor::random(shape.0, shape.1, shape.2, 0x700 + i as u64);
            let gold = golden(&layers, &golden_weights, &input);
            (pipe.submit_with_priority(input, None, class).unwrap(), gold)
        })
        .collect();
    for (i, (ticket, gold)) in jobs.into_iter().enumerate() {
        assert_eq!(ticket.wait().unwrap().output, gold, "inference {i} diverged");
    }
    let stats = pipe.shutdown();
    assert_eq!(stats.completed, classes.len() as u64);
    assert_eq!(stats.admitted_by_class, vec![2, 2, 2]);
    assert_eq!(stats.overload_sheds, vec![0, 0, 0], "no brownout: nothing sheds");
}
