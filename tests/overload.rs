//! Integration tests of the overload-control subsystem: priority classes
//! and eviction, CoDel brownout escalation, concurrent-admission capacity
//! accounting, shutdown under standing overload, and exactly-once counting
//! under concurrent clients.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use npcgra::nn::reference;
use npcgra::serve::overload::{BrownoutLevel, Priority};
use npcgra::serve::{ModelId, OverloadConfig, ServeConfig, ServeError, Server, WorkerExit};
use npcgra::{CgraSpec, ConvLayer, Tensor};

fn spec() -> CgraSpec {
    CgraSpec::np_cgra(4, 4)
}

fn pointwise_model(server: &Server) -> ModelId {
    let layer = ConvLayer::pointwise("pw", 4, 4, 4, 4);
    server.register("m", layer.clone(), layer.random_weights(1)).unwrap()
}

/// Regression for the queued-depth accounting race: admission's capacity
/// check and its queue push happen atomically under the queue lock, so a
/// storm of concurrent submitters can never over-admit past the bound or
/// drive the depth gauge beyond it.
#[test]
fn concurrent_admission_never_exceeds_capacity() {
    const CAPACITY: usize = 8;
    const THREADS: usize = 8;
    const PER_THREAD: usize = 4;
    // Zero workers: nothing drains, so exactly `CAPACITY` submissions can
    // ever succeed and the rest must shed as QueueFull.
    let server = Server::start(ServeConfig::for_spec(&spec()).with_workers(0).with_queue_capacity(CAPACITY));
    let id = pointwise_model(&server);
    let full = AtomicUsize::new(0);
    let tickets: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (server, full) = (&server, &full);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..PER_THREAD {
                        match server.submit(id, Tensor::random(4, 4, 4, (t * PER_THREAD + i) as u64)) {
                            Ok(ticket) => mine.push(ticket),
                            Err(ServeError::QueueFull { capacity }) => {
                                assert_eq!(capacity, CAPACITY);
                                full.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(other) => panic!("unexpected admission error: {other}"),
                        }
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(tickets.len(), CAPACITY);
    assert_eq!(full.load(Ordering::Relaxed), THREADS * PER_THREAD - CAPACITY);
    let stats = server.shutdown();
    assert_eq!(stats.submitted, CAPACITY as u64);
    assert_eq!(stats.max_queue_depth, CAPACITY as u64, "depth gauge never exceeded the bound");
    assert_eq!(stats.rejected_queue_full, (THREADS * PER_THREAD - CAPACITY) as u64);
    assert_eq!(
        stats.rejected_shutdown, CAPACITY as u64,
        "every queued request was resolved at shutdown"
    );
    for t in tickets {
        assert_eq!(t.wait().unwrap_err(), ServeError::ShuttingDown);
    }
}

/// A full queue with lower-priority requests queued admits a
/// higher-priority arrival by evicting the oldest request of the lowest
/// backlogged class; same-or-higher-class arrivals still bounce QueueFull.
#[test]
fn priority_eviction_makes_room_for_higher_classes() {
    let server = Server::start(ServeConfig::for_spec(&spec()).with_workers(0).with_queue_capacity(2));
    let id = pointwise_model(&server);
    let input = || Tensor::random(4, 4, 4, 7);
    let be1 = server.submit_with_priority(id, input(), None, Priority::BestEffort).unwrap();
    let be2 = server.submit_with_priority(id, input(), None, Priority::BestEffort).unwrap();
    // Same class, full queue: no one below BestEffort to evict.
    let err = server
        .submit_with_priority(id, input(), None, Priority::BestEffort)
        .unwrap_err();
    assert!(matches!(err, ServeError::QueueFull { capacity: 2 }));
    // Interactive evicts the oldest BestEffort, then Batch the second.
    let i1 = server.submit_with_priority(id, input(), None, Priority::Interactive).unwrap();
    let b1 = server.submit_with_priority(id, input(), None, Priority::Batch).unwrap();
    for (victim, class) in [(be1, Priority::BestEffort), (be2, Priority::BestEffort)] {
        match victim.wait().unwrap_err() {
            ServeError::Overloaded { class: got, .. } => assert_eq!(got, class),
            other => panic!("evicted ticket resolved to {other}"),
        }
    }
    // Interactive also evicts Batch; a further Interactive finds nothing
    // below itself to evict.
    let i2 = server.submit_with_priority(id, input(), None, Priority::Interactive).unwrap();
    assert!(matches!(
        b1.wait().unwrap_err(),
        ServeError::Overloaded {
            class: Priority::Batch,
            ..
        }
    ));
    let err = server
        .submit_with_priority(id, input(), None, Priority::Interactive)
        .unwrap_err();
    assert!(matches!(err, ServeError::QueueFull { capacity: 2 }));
    drop((i1, i2));
    let stats = server.shutdown();
    assert_eq!(stats.priority_evictions, 3);
    assert_eq!(stats.overload_sheds[Priority::BestEffort.index()], 2);
    assert_eq!(stats.overload_sheds[Priority::Batch.index()], 1);
}

/// Standing queue delay (nothing drains, heads age past the CoDel target
/// window after window) climbs the brownout ladder until best-effort
/// traffic is shed at admission, and the escalation is visible in stats.
#[test]
fn brownout_ladder_sheds_best_effort_under_standing_delay() {
    let server = Server::start(
        ServeConfig::for_spec(&spec())
            .with_workers(0)
            .with_queue_capacity(256)
            .with_overload(OverloadConfig {
                delay_target: Some(Duration::from_micros(500)),
                delay_window: Duration::from_millis(2),
            }),
    );
    let id = pointwise_model(&server);
    let mut tickets = Vec::new();
    let mut shed = false;
    for i in 0..100 {
        // Interactive keeps arriving (and keeps the queue head aging);
        // at Drain even it is shed, which is fine — the ladder moved.
        if let Ok(t) = server.submit_with_priority(id, Tensor::random(4, 4, 4, i), None, Priority::Interactive) {
            tickets.push(t);
        }
        std::thread::sleep(Duration::from_millis(3));
        match server.submit_with_priority(id, Tensor::random(4, 4, 4, 1000 + i), None, Priority::BestEffort) {
            Err(ServeError::Overloaded { level, class }) => {
                assert!(level >= BrownoutLevel::ShedBestEffort);
                assert_eq!(class, Priority::BestEffort);
                shed = true;
                break;
            }
            Ok(t) => tickets.push(t),
            Err(other) => panic!("unexpected admission error: {other}"),
        }
    }
    assert!(shed, "standing delay never tripped the brownout ladder");
    let stats = server.stats();
    assert!(stats.brownout_escalations >= 1);
    assert!(stats.brownout_level >= BrownoutLevel::ShedBestEffort);
    assert!(stats.overload_sheds[Priority::BestEffort.index()] >= 1);
    drop(tickets);
    let _ = server.shutdown();
}

/// Shutdown while all three classes are queued past capacity: every
/// admitted ticket resolves (served or typed-shed, never a hang, never a
/// lost reply), and no worker panics on the way out.
#[test]
fn shutdown_under_overload_resolves_every_ticket() {
    let server = Server::start(
        ServeConfig::for_spec(&spec())
            .with_workers(2)
            .with_queue_capacity(12)
            .with_max_batch(4)
            .with_max_linger(Duration::from_millis(20))
            .with_overload(OverloadConfig {
                delay_target: Some(Duration::from_millis(1)),
                delay_window: Duration::from_millis(2),
            }),
    );
    let id = pointwise_model(&server);
    let mut tickets = Vec::new();
    let mut overflow = 0usize;
    for i in 0..36u64 {
        let class = Priority::ALL[(i % 3) as usize];
        match server.submit_with_priority(id, Tensor::random(4, 4, 4, i), None, class) {
            Ok(t) => tickets.push(t),
            // Past capacity / under brownout the shed must be typed.
            Err(ServeError::QueueFull { .. } | ServeError::Overloaded { .. }) => overflow += 1,
            Err(other) => panic!("unexpected admission error: {other}"),
        }
    }
    assert!(overflow > 0, "the load pattern must actually exceed capacity");
    let admitted = tickets.len();
    let stats = server.shutdown();
    let mut served = 0u64;
    let mut typed_shed = 0u64;
    for t in tickets {
        match t.wait_timeout(Duration::from_secs(30)) {
            Ok(_) => served += 1,
            Err(ServeError::ShuttingDown | ServeError::Overloaded { .. } | ServeError::DeadlineExceeded) => {
                typed_shed += 1;
            }
            Err(other) => panic!("ticket leaked or hung: {other}"),
        }
    }
    assert_eq!(served + typed_shed, admitted as u64, "every admitted ticket resolved");
    assert_eq!(stats.completed, served);
    assert_eq!(stats.late_replies, 0, "no replies landed after their tickets died");
    assert!(stats.worker_exits.iter().all(|e| *e == WorkerExit::Clean));
}

/// Concurrent clients on two shards: every response stays bit-exact with
/// the golden reference, each request is counted exactly once, and no
/// reply goes astray.
#[test]
fn concurrent_clients_stay_bit_exact_and_count_once() {
    let server = Server::start(
        ServeConfig::for_spec(&spec())
            .with_workers(2)
            .with_max_batch(2)
            .with_max_linger(Duration::from_micros(200)),
    );
    let layer = ConvLayer::depthwise("dw", 4, 12, 12, 3, 1, 1);
    let weights = layer.random_weights(9);
    let id = server.register("m", layer.clone(), weights.clone()).unwrap();
    let total = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let (server, layer, weights, total) = (&server, &layer, &weights, &total);
            scope.spawn(move || {
                for i in 0..10u64 {
                    let ifm = Tensor::random(4, 12, 12, t * 100 + i);
                    let golden = reference::run_layer(layer, &ifm, weights).unwrap();
                    let resp = server.submit(id, ifm).unwrap().wait().unwrap();
                    assert_eq!(resp.output, golden, "concurrent serving broke bit-exactness");
                    total.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let stats = server.shutdown();
    assert_eq!(total.load(Ordering::Relaxed), 40);
    assert_eq!(stats.completed, 40, "each request counted exactly once");
    assert_eq!(stats.late_replies, 0);
}
