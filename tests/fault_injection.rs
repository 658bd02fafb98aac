//! Fault injection: deliberately break pieces of the mapping stack and
//! verify the simulator *detects* the break (as a hardware-rule error or a
//! functional mismatch) instead of silently producing plausible garbage.
//! This is what gives the green test suite its teeth.
//!
//! Two layers of injection live here: hand-corrupted programs (the seed
//! tests below), and scheduled transient bit flips — handed straight to the
//! machine, or drawn from a [`FaultPlan`] on a cycle-accurate backend and
//! through the serving stack's chaos knobs (worker panics, poison requests,
//! degraded mode).

use std::time::Duration;

use npcgra::kernels::dwc_general::padded_ifm;
use npcgra::kernels::dwc_s1::DwcS1LayerMap;
use npcgra::kernels::pwc::PwcLayerMap;
use npcgra::nn::Word;
use npcgra::serve::{ChaosConfig, ServeConfig, ServeError, Server, WorkerExit};
use npcgra::sim::{backend_for, BackendTier, ExecutionBackend, Fault, FaultPlan, FaultSite, IntegrityMode};
use npcgra::{reference, CgraSpec, CompiledLayer, ConvLayer, Machine, MappingKind, Tensor};

#[test]
fn corrupted_h_bank_image_changes_the_output() {
    // Flip one word in one bank image: some extracted output must differ
    // from golden (the layouts carry no redundancy).
    let spec = CgraSpec::np_cgra(4, 4);
    let layer = ConvLayer::pointwise("pw", 8, 8, 4, 4);
    let map = PwcLayerMap::new(&layer, &spec).unwrap();
    let ifm = Tensor::random(8, 4, 4, 1);
    let w = layer.random_weights(2);
    let golden = reference::run_layer(&layer, &ifm, &w).unwrap();

    let mut prog = map.materialize(0, &ifm, &w);
    prog.h_banks[1][3] = prog.h_banks[1][3].wrapping_add(1);
    let res = Machine::new(&spec).run_block(&prog).unwrap();
    let mismatches = res.ofm.iter().filter(|&&(c, y, x, v)| v != golden.get(c, y, x)).count();
    assert!(mismatches > 0, "a corrupted IFM word must surface in the output");
}

#[test]
fn corrupted_grf_kernel_changes_dwc_output() {
    let spec = CgraSpec::np_cgra(4, 4);
    let layer = ConvLayer::depthwise("dw", 1, 8, 8, 3, 1, 1);
    let map = DwcS1LayerMap::new(&layer, &spec).unwrap();
    let ifm = Tensor::random(1, 8, 8, 3);
    let padded = padded_ifm(&layer, &ifm);
    let w = layer.random_weights(4);
    let golden = reference::run_layer(&layer, &ifm, &w).unwrap();

    let mut prog = map.materialize(0, &padded, &w);
    prog.grf[4] = prog.grf[4].wrapping_add(7); // the centre tap
    let res = Machine::new(&spec).run_block(&prog).unwrap();
    let mismatches = res.ofm.iter().filter(|&&(c, y, x, v)| v != golden.get(c, y, x)).count();
    assert!(mismatches > 0);
}

#[test]
fn oversized_bank_image_is_rejected_not_truncated() {
    let mut spec = CgraSpec::np_cgra(4, 4);
    spec.hmem_bytes = 4 * 32 * 2; // 32 words per bank
                                  // Plan against a machine with plenty of memory, run on the tiny one.
    let big = CgraSpec::np_cgra(4, 4);
    let layer = ConvLayer::pointwise("pw", 48, 8, 4, 4);
    let map = PwcLayerMap::new(&layer, &big).unwrap();
    let ifm = Tensor::random(48, 4, 4, 1);
    let w = layer.random_weights(2);
    let prog = map.materialize(0, &ifm, &w);
    let err = Machine::new(&spec).run_block(&prog).unwrap_err();
    assert!(err.to_string().contains("exceeds capacity"), "{err}");
}

#[test]
fn truncated_grf_is_detected_at_the_broadcast_cycle() {
    let spec = CgraSpec::np_cgra(4, 4);
    let layer = ConvLayer::depthwise("dw", 1, 8, 8, 3, 1, 1);
    let map = DwcS1LayerMap::new(&layer, &spec).unwrap();
    let padded = padded_ifm(&layer, &Tensor::random(1, 8, 8, 5));
    let w = layer.random_weights(6);
    let mut prog = map.materialize(0, &padded, &w);
    prog.grf.truncate(4); // kernel needs 9 entries
    let err = Machine::new(&spec).run_block(&prog).unwrap_err();
    assert!(err.to_string().contains("GRF index"), "{err}");
}

#[test]
fn shifted_store_base_lands_outside_and_errors() {
    // Point the OFM region past the bank: the store must fail loudly.
    let spec = CgraSpec::np_cgra(4, 4);
    let layer = ConvLayer::pointwise("pw", 8, 8, 4, 4);
    let map = PwcLayerMap::new(&layer, &spec).unwrap();
    let ifm = Tensor::random(8, 4, 4, 7);
    let w = layer.random_weights(8);
    let mut prog = map.materialize(0, &ifm, &w);
    let words_per_bank = spec.hmem_bytes / spec.word_bytes / spec.rows;
    prog.mapping = Box::new(npcgra::kernels::PwcMapping::new(8, &spec, words_per_bank));
    let err = Machine::new(&spec).run_block(&prog).unwrap_err();
    assert!(
        err.to_string().contains("out of range") || err.to_string().contains("offset"),
        "{err}"
    );
}

// ---- machine-level FaultPlan injection -------------------------------------

#[test]
fn explicit_h_bank_flip_silently_corrupts_the_output() {
    // The silent-corruption path: a single injected bit flip in an H-MEM
    // bank produces a *successful* run with a wrong output word.
    let spec = CgraSpec::np_cgra(4, 4);
    let layer = ConvLayer::pointwise("pw", 8, 8, 4, 4);
    let map = PwcLayerMap::new(&layer, &spec).unwrap();
    let ifm = Tensor::random(8, 4, 4, 1);
    let w = layer.random_weights(2);
    let golden = reference::run_layer(&layer, &ifm, &w).unwrap();

    let prog = map.materialize(0, &ifm, &w);
    let mut machine = Machine::new(&spec);
    let flip = Fault {
        tile: 0,
        cycle: 0,
        site: FaultSite::HBankBit {
            bank: 1,
            offset: 3,
            bit: 0,
        },
    };
    let res = machine.run_block_with_faults(&prog, &[flip]).unwrap();
    assert_eq!(machine.faults_injected(), 1);
    let mismatches = res.ofm.iter().filter(|&&(c, y, x, v)| v != golden.get(c, y, x)).count();
    assert!(mismatches > 0, "a flipped IFM bit must surface in the output");
}

#[test]
fn explicit_grf_trim_trips_the_detected_error_path() {
    // The detected path: a GRF validity fault trips the existing GrfIndex
    // hardware rule at the next broadcast instead of corrupting silently.
    let spec = CgraSpec::np_cgra(4, 4);
    let layer = ConvLayer::depthwise("dw", 1, 8, 8, 3, 1, 1);
    let map = DwcS1LayerMap::new(&layer, &spec).unwrap();
    let padded = padded_ifm(&layer, &Tensor::random(1, 8, 8, 5));
    let w = layer.random_weights(6);
    let prog = map.materialize(0, &padded, &w);
    let trim = Fault {
        tile: 0,
        cycle: 0,
        site: FaultSite::GrfTrim { keep: 0 },
    };
    let err = Machine::new(&spec).run_block_with_faults(&prog, &[trim]).unwrap_err();
    assert!(err.to_string().contains("GRF index"), "{err}");
}

#[test]
fn injected_fault_plan_is_deterministic_per_seed() {
    let spec = CgraSpec::np_cgra(4, 4);
    let layer = ConvLayer::pointwise("pw", 8, 8, 8, 8);
    let compiled = CompiledLayer::compile(&layer, &spec, MappingKind::Auto).unwrap();
    let ifm = Tensor::random(8, 8, 8, 1);
    let w = layer.random_weights(2);
    let run = |seed: u64, rate: f64| {
        let mut backend = backend_for(BackendTier::CycleAccurate, &spec);
        backend.set_fault_plan(Some(FaultPlan::bernoulli(seed, rate)));
        let result = backend
            .run_layer(&compiled, &ifm, &w)
            .map(|(ofm, _)| ofm)
            .map_err(|e| e.to_string());
        (result, backend.faults_injected())
    };
    let (a, injected_a) = run(0xDEAD, 0.02);
    let (b, injected_b) = run(0xDEAD, 0.02);
    assert_eq!(a, b, "same seed on fresh machines is bit-identical");
    assert_eq!(injected_a, injected_b);
    assert!(injected_a > 0, "rate 0.02 over a whole layer must fire");
    let (clean, injected_zero) = run(0xDEAD, 0.0);
    assert_eq!(injected_zero, 0);
    let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
    assert_eq!(clean.unwrap(), golden, "rate zero leaves the run golden");
}

// ---- ABFT output-integrity checks ------------------------------------------

/// The `explicit_h_bank_flip_silently_corrupts_the_output` setup, but on a
/// cycle-accurate backend whose integrity mode is configurable.
fn pwc_with_flip(mode: IntegrityMode) -> (CompiledLayer, Box<dyn ExecutionBackend>, Tensor, Tensor, Tensor) {
    let spec = CgraSpec::np_cgra(4, 4);
    let layer = ConvLayer::pointwise("pw", 8, 8, 4, 4);
    let compiled = CompiledLayer::compile(&layer, &spec, MappingKind::Auto).unwrap();
    let ifm = Tensor::random(8, 4, 4, 1);
    let w = layer.random_weights(2);
    let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
    let mut machine = backend_for(BackendTier::CycleAccurate, &spec);
    machine.set_fault_plan(Some(FaultPlan::explicit(vec![Fault {
        tile: 0,
        cycle: 0,
        site: FaultSite::HBankBit {
            bank: 1,
            offset: 3,
            bit: 0,
        },
    }])));
    machine.set_integrity_mode(mode);
    (compiled, machine, ifm, w, golden)
}

#[test]
fn pwc_checksum_detects_the_injected_silent_flip() {
    // The exact flip that `explicit_h_bank_flip_silently_corrupts_the_output`
    // proves is silent becomes a typed error once verification is on.
    let (compiled, mut machine, ifm, w, _) = pwc_with_flip(IntegrityMode::Verify);
    let err = machine.run_layer(&compiled, &ifm, &w).unwrap_err();
    assert!(err.to_string().contains("integrity"), "{err}");
    assert_eq!(machine.faults_injected(), 1);
}

#[test]
fn verify_and_recompute_heals_the_flip_to_golden() {
    let (compiled, mut machine, ifm, w, golden) = pwc_with_flip(IntegrityMode::VerifyAndRecompute);
    let (ofm, report) = machine.run_layer(&compiled, &ifm, &w).unwrap();
    assert_eq!(ofm, golden, "recompute mode must hand back the golden output");
    assert!(report.integrity_failed >= 1, "the flip must trip a checksum");
    assert!(report.integrity_recovered >= 1, "the tripped block must be healed");
    assert!(report.integrity_checked >= report.integrity_failed);
}

#[test]
fn dwc_channel_sum_detects_a_grf_kernel_bit_flip() {
    // A flipped kernel tap corrupts every output of its channel by the same
    // systematic bias — exactly what the per-channel sum identity catches.
    let spec = CgraSpec::np_cgra(4, 4);
    let layer = ConvLayer::depthwise("dw", 2, 8, 8, 3, 1, 1);
    let compiled = CompiledLayer::compile(&layer, &spec, MappingKind::Auto).unwrap();
    let ifm = Tensor::random(2, 8, 8, 3);
    let w = layer.random_weights(4);
    let mut machine = backend_for(BackendTier::CycleAccurate, &spec);
    machine.set_fault_plan(Some(FaultPlan::explicit(vec![Fault {
        tile: 0,
        cycle: 0,
        site: FaultSite::GrfBit { index: 4, bit: 3 },
    }])));
    machine.set_integrity_mode(IntegrityMode::Verify);
    let err = machine.run_layer(&compiled, &ifm, &w).unwrap_err();
    assert!(err.to_string().contains("integrity"), "{err}");
}

// ---- served-path chaos -----------------------------------------------------

#[test]
fn worker_panic_recovers_and_answers_every_request() {
    let chaos = ChaosConfig {
        panic_on_first_batch: Some(0),
        ..ChaosConfig::default()
    };
    let config = ServeConfig::for_spec(&CgraSpec::np_cgra(4, 4))
        .with_workers(1)
        .with_max_batch(1)
        .with_restart_backoff(Duration::ZERO)
        .with_chaos(chaos);
    let server = Server::start(config);
    let layer = ConvLayer::depthwise("dw", 3, 8, 8, 3, 1, 1);
    let w = layer.random_weights(1);
    let id = server.register("m", layer.clone(), w.clone()).unwrap();
    for seed in 0..4 {
        let ifm = Tensor::random(3, 8, 8, seed);
        let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
        let resp = server.submit(id, ifm).unwrap().wait().unwrap();
        assert_eq!(resp.output, golden, "post-recovery replies stay bit-exact");
    }
    let stats = server.shutdown();
    assert_eq!(stats.panics_caught, 1, "the injected panic was caught, once");
    assert_eq!(stats.restarts, 1);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.shard_health, vec![true]);
    assert_eq!(stats.worker_exits, vec![WorkerExit::Clean]);
}

#[test]
fn poison_request_is_quarantined_and_batch_mates_complete() {
    const POISON: Word = 0x7A5A;
    let chaos = ChaosConfig {
        poison_value: Some(POISON),
        ..ChaosConfig::default()
    };
    let config = ServeConfig::for_spec(&CgraSpec::np_cgra(4, 4))
        .with_workers(1)
        .with_max_batch(4)
        .with_max_linger(Duration::from_millis(50))
        .with_max_retries(1)
        .with_chaos(chaos);
    let server = Server::start(config);
    let layer = ConvLayer::depthwise("dw", 2, 8, 8, 3, 1, 1);
    let w = layer.random_weights(1);
    let id = server.register("m", layer.clone(), w.clone()).unwrap();

    let mut tickets = Vec::new();
    let mut goldens = Vec::new();
    for seed in 0..4u64 {
        let mut ifm = Tensor::random(2, 8, 8, seed + 10);
        if seed == 2 {
            ifm.set(0, 0, 0, POISON);
            goldens.push(None);
        } else {
            if ifm.get(0, 0, 0) == POISON {
                ifm.set(0, 0, 0, 0);
            }
            goldens.push(Some(reference::run_layer(&layer, &ifm, &w).unwrap()));
        }
        tickets.push(server.submit(id, ifm).unwrap());
    }

    let mut quarantined = 0;
    for (ticket, golden) in tickets.into_iter().zip(goldens) {
        match (ticket.wait(), golden) {
            (Ok(resp), Some(g)) => assert_eq!(resp.output, g, "batch-mates of the poison stay bit-exact"),
            (Err(ServeError::Quarantined { attempts, .. }), None) => {
                assert!(attempts >= 2, "bisection + retry cap spent only {attempts} attempt(s)");
                quarantined += 1;
            }
            (outcome, golden) => panic!("unexpected outcome {outcome:?} (clean request: {})", golden.is_some()),
        }
    }
    assert_eq!(quarantined, 1);
    let stats = server.shutdown();
    assert_eq!(stats.quarantined, 1);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.failed, 1);
    assert!(stats.retries >= 1, "isolating the poison takes at least one retry");
    assert_eq!(stats.worker_exits, vec![WorkerExit::Clean]);
}

#[test]
fn exhausted_restart_budget_degrades_the_server() {
    let chaos = ChaosConfig {
        panic_on_first_batch: Some(0),
        ..ChaosConfig::default()
    };
    let config = ServeConfig::for_spec(&CgraSpec::np_cgra(4, 4))
        .with_workers(1)
        .with_restart_budget(0)
        .with_restart_backoff(Duration::ZERO)
        .with_chaos(chaos);
    let server = Server::start(config);
    let layer = ConvLayer::pointwise("pw", 4, 4, 4, 4);
    let id = server.register("m", layer.clone(), layer.random_weights(1)).unwrap();
    // The only shard panics on this batch and has no restart budget: the
    // request must come back Degraded (never hang), and the server must
    // then shed at admission.
    let err = server.submit(id, Tensor::random(4, 4, 4, 1)).unwrap().wait().unwrap_err();
    assert!(matches!(err, ServeError::Degraded { healthy: 0, .. }), "{err:?}");
    let err = server.submit(id, Tensor::random(4, 4, 4, 2)).unwrap_err();
    assert!(matches!(err, ServeError::Degraded { healthy: 0, .. }), "{err:?}");
    let stats = server.shutdown();
    assert_eq!(stats.panics_caught, 1);
    assert_eq!(stats.restarts, 0, "no budget means no respawn");
    assert_eq!(stats.shard_health, vec![false]);
    assert_eq!(stats.worker_exits, vec![WorkerExit::Unhealthy]);
    assert!(stats.degraded_sheds >= 2);
}

#[test]
fn served_chaos_is_deterministic_in_the_fault_seed() {
    let run_once = || {
        let chaos = ChaosConfig {
            fault_seed: Some(0xFEED),
            fault_rate: 0.002,
            ..ChaosConfig::default()
        };
        let config = ServeConfig::for_spec(&CgraSpec::np_cgra(4, 4))
            .with_workers(1)
            .with_max_batch(1)
            .with_chaos(chaos);
        let server = Server::start(config);
        let layer = ConvLayer::pointwise("pw", 8, 8, 8, 8);
        let id = server.register("m", layer.clone(), layer.random_weights(3)).unwrap();
        let mut outcomes = Vec::new();
        for seed in 0..6u64 {
            // Closed loop on one worker: run ordinals (and so fault draws)
            // depend only on the submission sequence.
            let outcome = server.submit(id, Tensor::random(8, 8, 8, seed)).unwrap().wait();
            outcomes.push(outcome.map(|resp| resp.output).map_err(|e| e.to_string()));
        }
        let _ = server.shutdown();
        outcomes
    };
    assert_eq!(run_once(), run_once(), "same fault seed, same requests: bit-identical");
}

/// The PR's acceptance bar: under a seeded silent-corruption fault plan
/// with verification on (the serving default), every request either
/// completes **bit-exactly** (corruption detected, healed by retry) or is
/// quarantined with a typed error — never answered silently wrong.
#[test]
fn integrity_layer_survives_seeded_data_corruption_when_served() {
    const TOTAL: u64 = 120;
    let chaos = ChaosConfig {
        fault_seed: Some(0xAB_F7),
        fault_rate: 0.004,
        ..ChaosConfig::default()
    };
    let config = ServeConfig::for_spec(&CgraSpec::np_cgra(4, 4))
        .with_workers(1)
        .with_max_batch(1)
        .with_chaos(chaos);
    let server = Server::start(config);
    let layer = ConvLayer::pointwise("pw", 8, 8, 8, 8);
    let w = layer.random_weights(7);
    let id = server.register("m", layer.clone(), w.clone()).unwrap();
    let mut quarantined = 0u64;
    for seed in 0..TOTAL {
        // Closed loop on one worker: fully deterministic in the fault seed.
        let ifm = Tensor::random(8, 8, 8, seed);
        let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
        match server.submit(id, ifm).unwrap().wait() {
            Ok(resp) => assert_eq!(resp.output, golden, "request {seed} was answered silently wrong"),
            Err(ServeError::Quarantined { .. }) => quarantined += 1,
            Err(e) => panic!("request {seed}: unexpected outcome {e:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed + stats.quarantined, TOTAL, "every request resolved");
    assert_eq!(stats.quarantined, quarantined);
    assert!(stats.integrity_checked > 0, "verification must actually run");
    assert!(stats.integrity_failed > 0, "the fault plan must actually trip checksums");
    assert!(
        stats.integrity_recovered > 0,
        "some corrupted request must be healed by retry"
    );
    assert_eq!(stats.worker_exits, vec![WorkerExit::Clean]);
}

/// A machine faulting on *every* cycle defeats per-request retry; the
/// periodic canary self-test must notice and retire the shard instead of
/// letting it grind requests forever.
#[test]
fn canary_failure_retires_a_sticky_shard() {
    let chaos = ChaosConfig {
        fault_seed: Some(0x5711C),
        fault_rate: 1.0,
        ..ChaosConfig::default()
    };
    let config = ServeConfig::for_spec(&CgraSpec::np_cgra(4, 4))
        .with_workers(1)
        .with_max_batch(1)
        .with_max_retries(0)
        .with_restart_backoff(Duration::ZERO)
        .with_canary_interval(1)
        .with_chaos(chaos);
    let server = Server::start(config);
    let layer = ConvLayer::pointwise("pw", 4, 4, 4, 4);
    let id = server.register("m", layer.clone(), layer.random_weights(1)).unwrap();
    let mut degraded = false;
    for seed in 0..50u64 {
        match server.submit(id, Tensor::random(4, 4, 4, seed)) {
            Ok(ticket) => match ticket.wait() {
                Err(ServeError::Quarantined { .. }) => {}
                Err(ServeError::Degraded { .. }) => {
                    degraded = true;
                    break;
                }
                other => panic!("sticky faults must quarantine or degrade, got {other:?}"),
            },
            Err(ServeError::Degraded { .. }) => {
                degraded = true;
                break;
            }
            Err(e) => panic!("submit failed: {e:?}"),
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(degraded, "two canary strikes must retire the only shard");
    let stats = server.shutdown();
    assert_eq!(stats.worker_exits, vec![WorkerExit::Unhealthy]);
    assert!(stats.canary_runs >= 2);
    assert!(stats.canary_failed >= 2, "retirement takes two consecutive strikes");
    assert_eq!(stats.shard_health, vec![false]);
}
