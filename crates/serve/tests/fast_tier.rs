//! End-to-end serving on the functional fast tier.
//!
//! The fast tier must be invisible to callers except in speed: every reply
//! bit-exact against the golden reference, every charged cycle equal to
//! the closed-form model (the periodic cross-check replays a served batch
//! on a scratch cycle-accurate machine and quarantines the shard on ANY
//! divergence), and the whole ABFT/retry ladder still catching injected
//! corruption. These tests drive a real server through all three claims.

use std::time::Duration;

use npcgra_arch::CgraSpec;
use npcgra_nn::{models, reference, ConvLayer, Tensor};
use npcgra_serve::{BackendTier, ChaosConfig, CrossCheckCorruption, Pipeline, ServeConfig, Server, Ticket, WorkerExit};
use npcgra_sim::CompiledModel;

fn fast_config(spec: &CgraSpec) -> ServeConfig {
    ServeConfig::for_spec(spec)
        .with_workers(2)
        .with_max_linger(Duration::from_millis(5))
        .with_backend_tier(BackendTier::Fast)
}

#[test]
fn fast_tier_serves_bit_exact_and_cross_checks_stay_clean() {
    let spec = CgraSpec::np_cgra(4, 4);
    // Cross-check every batch: a healthy fast tier must survive the
    // harshest replay cadence with zero divergences.
    let server = Server::start(fast_config(&spec).with_cross_check_interval(1));
    let dw = ConvLayer::depthwise("dw", 2, 8, 8, 3, 1, 1);
    let pw = ConvLayer::pointwise("pw", 3, 4, 6, 6);
    let dw_w = dw.random_weights(11);
    let pw_w = pw.random_weights(12);
    let dw_id = server.register("dw", dw.clone(), dw_w.clone()).unwrap();
    let pw_id = server.register("pw", pw.clone(), pw_w.clone()).unwrap();

    let mut cases = Vec::new();
    for i in 0..12u64 {
        let dw_ifm = Tensor::random(2, 8, 8, 100 + i);
        let pw_ifm = Tensor::random(3, 6, 6, 200 + i);
        let dw_gold = reference::run_layer(&dw, &dw_ifm, &dw_w).unwrap();
        let pw_gold = reference::run_layer(&pw, &pw_ifm, &pw_w).unwrap();
        cases.push((server.submit(dw_id, dw_ifm).unwrap(), dw_gold));
        cases.push((server.submit(pw_id, pw_ifm).unwrap(), pw_gold));
    }
    for (ticket, golden) in cases {
        let response = ticket.wait().expect("fast tier serves every request");
        assert_eq!(response.output, golden, "fast-tier reply diverged from the reference");
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 24);
    assert!(stats.cross_checks > 0, "fast tier never ran its golden cross-check");
    assert_eq!(stats.cross_check_failed, 0, "healthy fast tier diverged from the cycle tier");
    assert!(
        stats.cycles_charged[BackendTier::Fast.index()] > 0,
        "fast tier charged no cycles"
    );
    assert!(stats.healthy_workers() == 2, "a healthy shard was quarantined");
}

#[test]
fn cycle_tier_default_never_cross_checks() {
    // An untouched config stays on the cycle-accurate tier: no fast cycles
    // charged, and the golden cross-check (a fast-tier-only honesty
    // mechanism) never runs.
    let spec = CgraSpec::np_cgra(4, 4);
    let server = Server::start(ServeConfig::for_spec(&spec).with_workers(1));
    let layer = ConvLayer::depthwise("dw", 2, 8, 8, 3, 1, 1);
    let w = layer.random_weights(3);
    let id = server.register("m", layer.clone(), w.clone()).unwrap();
    let ifm = Tensor::random(2, 8, 8, 42);
    let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
    let response = server.submit(id, ifm).unwrap().wait().unwrap();
    assert_eq!(response.output, golden);
    let stats = server.shutdown();
    assert_eq!(stats.cross_checks, 0);
    assert_eq!(stats.cycles_charged[BackendTier::Fast.index()], 0);
    assert!(stats.cycles_charged[BackendTier::CycleAccurate.index()] > 0);
}

#[test]
fn fast_tier_abft_catches_and_heals_injected_flips() {
    // Bernoulli bit-flip chaos on the fast tier: every structural fault
    // lands in an output entry, so ABFT must detect each one and the
    // retry ladder (independent fault draws per attempt) must heal it.
    let spec = CgraSpec::np_cgra(4, 4);
    let chaos = ChaosConfig {
        fault_seed: Some(0xFA57),
        fault_rate: 3e-3,
        ..ChaosConfig::default()
    };
    let server = Server::start(
        fast_config(&spec)
            .with_max_retries(6)
            .with_cross_check_interval(4)
            .with_chaos(chaos),
    );
    let layer = ConvLayer::depthwise("dw", 2, 8, 8, 3, 1, 1);
    let w = layer.random_weights(7);
    let id = server.register("m", layer.clone(), w.clone()).unwrap();
    let n = 32u64;
    let mut cases = Vec::new();
    for i in 0..n {
        let ifm = Tensor::random(2, 8, 8, 1000 + i);
        let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
        cases.push((server.submit(id, ifm).unwrap(), golden));
    }
    let mut completed = 0u64;
    for (ticket, golden) in cases {
        if let Ok(response) = ticket.wait() {
            assert_eq!(response.output, golden, "a corrupted reply escaped ABFT");
            completed += 1;
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, completed);
    assert!(completed >= n - 2, "chaos overwhelmed the retry ladder: {completed}/{n}");
    assert!(
        stats.integrity_failed > 0,
        "chaos injected no detectable faults — raise the rate"
    );
    assert!(stats.integrity_recovered > 0, "detected corruption was never healed");
    assert_eq!(
        stats.cross_check_failed, 0,
        "clean-run sampling let a faulty batch into the cross-check"
    );
}

/// Drive a fast-tier server whose captured cross-check samples are
/// chaos-corrupted, and assert the honesty mechanism fires: replies stay
/// bit-exact (the corruption touches only the audit record), the replay
/// diverges, and the shard is quarantined with no second strike.
fn divergence_drill(corruption: CrossCheckCorruption) {
    let spec = CgraSpec::np_cgra(4, 4);
    let chaos = ChaosConfig {
        cross_check_corrupt: Some(corruption),
        ..ChaosConfig::default()
    };
    let server = Server::start(fast_config(&spec).with_cross_check_interval(1).with_chaos(chaos));
    let layer = ConvLayer::depthwise("dw", 2, 8, 8, 3, 1, 1);
    let w = layer.random_weights(21);
    let id = server.register("m", layer.clone(), w.clone()).unwrap();
    // Sequential submits: each served batch feeds the per-batch
    // cross-check, which must catch the lie and kill the serving shard.
    // Once every shard is quarantined, submits shed — stop there.
    let mut served = 0u64;
    for i in 0..8u64 {
        let ifm = Tensor::random(2, 8, 8, 300 + i);
        let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
        let Ok(ticket) = server.submit(id, ifm) else { break };
        match ticket.wait() {
            Ok(response) => {
                assert_eq!(response.output, golden, "cross-check corruption leaked into a reply");
                served += 1;
            }
            // The quarantine can race the queue: a request caught on a
            // dying shard sheds instead of serving.
            Err(_) => break,
        }
    }
    let stats = server.shutdown();
    assert!(served >= 1, "no request was ever served");
    assert!(
        stats.cross_check_failed >= 1,
        "the cross-check never caught the divergence: {stats:?}"
    );
    assert!(stats.healthy_workers() < 2, "a shard caught lying was left in rotation");
    assert!(
        stats.worker_exits.contains(&WorkerExit::Unhealthy),
        "the diverging shard did not exit unhealthy: {:?}",
        stats.worker_exits
    );
}

#[test]
fn cross_check_quarantines_a_shard_with_diverging_outputs() {
    divergence_drill(CrossCheckCorruption::OutputBit);
}

#[test]
fn cross_check_quarantines_a_shard_with_diverging_cycle_charges() {
    divergence_drill(CrossCheckCorruption::ChargedCycles);
}

#[test]
fn one_worker_serves_the_benchmarks_77_endpoints_in_bursts_without_a_single_retry() {
    // The benchmark's served set on the benchmark box's shape: one worker,
    // the fast tier, ABFT on (the default), every DSC layer of MobileNet
    // V1+V2 (α 0.25, res 32) registered at once, traffic in same-model
    // bursts of 1-4 so the batcher builds its combined programs. Nothing
    // may go wrong quietly: no retry, no caught panic, no integrity
    // failure, no cross-check divergence, no quarantine.
    let spec = CgraSpec::np_cgra(4, 4);
    let server = Server::start(
        ServeConfig::for_spec(&spec)
            .with_workers(1)
            .with_max_linger(Duration::from_millis(5))
            .with_cross_check_interval(8)
            .with_backend_tier(BackendTier::Fast),
    );
    let layers: Vec<ConvLayer> = [models::mobilenet_v1(0.25, 32), models::mobilenet_v2(0.25, 32)]
        .iter()
        .flat_map(|m| m.dsc_layers().cloned().collect::<Vec<_>>())
        .collect();
    assert_eq!(layers.len(), 77);
    let endpoints: Vec<_> = layers
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            let weights = layer.random_weights(0xE0 + i as u64);
            let id = server.register(&format!("ep{i}"), layer.clone(), weights.clone()).unwrap();
            (id, layer, weights)
        })
        .collect();
    let mut served = 0u64;
    for (i, (id, layer, weights)) in endpoints.iter().enumerate() {
        for burst in 1..=4u64 {
            let cases: Vec<(Ticket, Tensor)> = (0..burst)
                .map(|j| {
                    let ifm = Tensor::random(
                        layer.in_channels(),
                        layer.in_h(),
                        layer.in_w(),
                        7000 + 16 * i as u64 + 4 * burst + j,
                    );
                    let golden = reference::run_layer(layer, &ifm, weights).unwrap();
                    (server.submit(*id, ifm).unwrap(), golden)
                })
                .collect();
            for (ticket, golden) in cases {
                let response = ticket
                    .wait()
                    .unwrap_or_else(|e| panic!("{} burst {burst}: {e}", layer.name()));
                assert!(
                    response.output == golden,
                    "{} burst {burst}: reply is not golden",
                    layer.name()
                );
                served += 1;
            }
        }
    }
    let stats = server.shutdown();
    assert_eq!(served, 77 * 10);
    assert_eq!(stats.completed, served);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.retries, 0, "a clean fast tier needs no retry");
    assert_eq!(stats.panics_caught, 0);
    assert_eq!(stats.integrity_failed, 0);
    assert_eq!(stats.quarantined, 0);
    assert_eq!(stats.cross_check_failed, 0, "the cycle tier disagrees with the fast tier");
    assert!(stats.cross_checks > 0, "the golden cross-check never ran");
    assert!(stats.integrity_checked > 0, "ABFT never ran");
    assert!(
        stats.batch_histogram.iter().skip(2).sum::<u64>() > 0,
        "no burst was ever batched: {:?}",
        stats.batch_histogram
    );
    assert_eq!(stats.healthy_workers(), 1, "the shard did not stay healthy");
}

#[test]
fn two_stage_pipeline_runs_the_26_layer_chain_clean_on_the_fast_tier() {
    // `pipeline_saturate`'s program: MobileNetV1-0.25-32 as a 2-stage
    // pipeline, four inferences in flight, every reply the chained golden
    // output and the healing machinery inert.
    let spec = CgraSpec::np_cgra(4, 4);
    let layers: Vec<ConvLayer> = models::mobilenet_v1(0.25, 32).dsc_layers().cloned().collect();
    assert_eq!(layers.len(), 26);
    let weights: Vec<Tensor> = layers
        .iter()
        .enumerate()
        .map(|(i, l)| l.random_weights(0xBEE + i as u64))
        .collect();
    let model = CompiledModel::compile("mobilenet_v1_0.25_32", &layers, &spec, 2).unwrap();
    assert_eq!(model.num_stages(), 2);
    let (c, h, w) = model.input_shape();
    let config = ServeConfig::for_spec(&spec)
        .with_backend_tier(BackendTier::Fast)
        .with_pipeline_stages(2);
    let pipe = Pipeline::start(config, model, weights.clone()).unwrap();
    let n = 12u64;
    let mut in_flight: std::collections::VecDeque<(Ticket, Tensor)> = std::collections::VecDeque::new();
    for i in 0..n {
        let input = Tensor::random(c, h, w, 0xF00D + i);
        let golden = layers
            .iter()
            .zip(&weights)
            .fold(input.clone(), |act, (l, w)| reference::run_layer(l, &act, w).unwrap());
        in_flight.push_back((pipe.submit(input).unwrap(), golden));
        if in_flight.len() == 4 || i + 1 == n {
            while let Some((ticket, golden)) = in_flight.pop_front() {
                let response = ticket.wait().unwrap_or_else(|e| panic!("inference failed: {e}"));
                assert!(response.output == golden, "pipeline reply is not the chained golden output");
            }
        }
    }
    let stats = pipe.shutdown();
    assert_eq!(stats.completed, n);
    assert_eq!((stats.failed, stats.shed), (0, 0));
    assert_eq!(stats.panics_caught, 0);
    assert_eq!(stats.integrity_failures, 0);
    assert_eq!(stats.handoff_corruptions, 0);
    assert_eq!(stats.preemptions + stats.watchdog_preemptions, 0);
    assert_eq!(stats.checkpoint_restores, 0);
    assert!(stats.stage_replays.iter().all(|&r| r == 0), "{:?}", stats.stage_replays);
    assert!(stats.stage_restarts.iter().all(|&r| r == 0), "{:?}", stats.stage_restarts);
    assert_eq!(stats.total_failovers(), 0);
    assert!(stats.cycles_charged > 0);
}
