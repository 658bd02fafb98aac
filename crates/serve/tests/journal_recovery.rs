//! End-to-end crash durability: the admission journal through real
//! servers.
//!
//! These tests exercise the whole recovery protocol — admit records made
//! durable before replies, clean shutdowns that restart with zero replay,
//! hard crashes whose admitted-but-unacknowledged requests re-enqueue on
//! the next start, bit-exact redelivery from the dedup table under client
//! idempotency keys, and the inertness of a journal-less server (the
//! default path writes no file and counts nothing).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use npcgra_arch::CgraSpec;
use npcgra_nn::{reference, ConvLayer, Tensor};
use npcgra_serve::journal;
use npcgra_serve::{JournalConfig, Priority, ServeConfig, Server};

fn temp_journal(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("npcgra-jrnl-{}-{}.log", tag, std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("log.compact"));
    path
}

fn config(spec: &CgraSpec, workers: usize) -> ServeConfig {
    ServeConfig::for_spec(spec)
        .with_workers(workers)
        .with_max_linger(Duration::from_millis(2))
}

fn model() -> (ConvLayer, Tensor) {
    let layer = ConvLayer::depthwise("dw", 2, 8, 8, 3, 1, 1);
    let weights = layer.random_weights(7);
    (layer, weights)
}

#[test]
fn clean_shutdown_restarts_with_zero_replay() {
    let spec = CgraSpec::np_cgra(4, 4);
    let jpath = temp_journal("clean");
    let (layer, weights) = model();
    let golden = {
        let (server, report) = Server::start_with_journal(config(&spec, 1), JournalConfig::new(&jpath)).unwrap();
        assert_eq!(report.replayed, 0, "a fresh journal has nothing to replay");
        let id = server.register("dw", layer.clone(), weights.clone()).unwrap();
        assert_eq!(server.replay_recovered().unwrap(), 0);
        let ifm = Tensor::random(2, 8, 8, 42);
        let golden = reference::run_layer(&layer, &ifm, &weights).unwrap();
        let ticket = server.submit_idem(id, ifm, None, Priority::Interactive, 0xA11CE).unwrap();
        assert_eq!(ticket.wait().unwrap().output, golden);
        let stats = server.shutdown();
        assert!(stats.journal_appends >= 2, "admit + ack must be journaled");
        assert_eq!(stats.duplicate_executions, 0);
        golden
    };
    // Second life: the journal was flushed fully-acked at shutdown, so
    // recovery finds nothing to re-enqueue — but the dedup table survives
    // compaction, so a retried key is redelivered without executing.
    let (server, report) = Server::start_with_journal(config(&spec, 1), JournalConfig::new(&jpath)).unwrap();
    assert_eq!(report.replayed, 0, "clean shutdown must restart with zero replay");
    assert_eq!(report.deduped, 1, "the completed key survives as redelivery state");
    let id = server.register("dw", layer, weights).unwrap();
    assert_eq!(server.replay_recovered().unwrap(), 0);
    let retry = server
        .submit_idem(id, Tensor::random(2, 8, 8, 42), None, Priority::Interactive, 0xA11CE)
        .unwrap();
    let redelivered = retry.wait().unwrap();
    assert_eq!(redelivered.output, golden, "redelivery must be bit-exact");
    let stats = server.shutdown();
    assert_eq!(stats.dedup_hits, 1);
    assert_eq!(stats.completed, 0, "redelivery never executes");
    let _ = std::fs::remove_file(&jpath);
}

#[test]
fn hard_crash_replays_admitted_work_exactly_once() {
    let spec = CgraSpec::np_cgra(4, 4);
    let jpath = temp_journal("crash");
    let (layer, weights) = model();
    let keys: Vec<u64> = (1..=4).map(|i| 0xBEE0 + i).collect();
    let inputs: Vec<Tensor> = (0..4).map(|i| Tensor::random(2, 8, 8, 900 + i)).collect();
    {
        // Zero workers: admitted requests sit in the queue forever — the
        // crash lands mid-flight by construction. fsync_every of 1 makes
        // each admit durable the moment its ticket is issued (the batched
        // default trades that window for throughput).
        let jcfg = JournalConfig::new(&jpath).with_fsync_every(1);
        let (server, _) = Server::start_with_journal(config(&spec, 0), jcfg).unwrap();
        let id = server.register("dw", layer.clone(), weights.clone()).unwrap();
        server.replay_recovered().unwrap();
        for (key, ifm) in keys.iter().zip(&inputs) {
            server
                .submit_idem(id, ifm.clone(), None, Priority::Interactive, *key)
                .unwrap();
        }
        let stats = server.hard_crash(0);
        assert_eq!(stats.completed, 0, "nothing may complete before the crash");
    }
    // Recovery: all four admits are unacknowledged, so all four replay and
    // execute — each exactly once, bit-exact.
    let (server, report) = Server::start_with_journal(config(&spec, 2), JournalConfig::new(&jpath)).unwrap();
    assert_eq!(report.replayed, 4, "every admitted request must survive the crash");
    assert_eq!(report.deduped, 0);
    let id = server.register("dw", layer.clone(), weights.clone()).unwrap();
    assert_eq!(server.replay_recovered().unwrap(), 4);
    // The replayed work has no caller-side tickets; wait for the workers
    // to drain it, then audit via a keyed retry of every request.
    for (key, ifm) in keys.iter().zip(&inputs) {
        let golden = reference::run_layer(&layer, ifm, &weights).unwrap();
        let ticket = server
            .submit_idem(id, ifm.clone(), None, Priority::Interactive, *key)
            .unwrap();
        let reply = ticket.wait().unwrap();
        assert_eq!(reply.output, golden, "recovered execution diverged for key {key:#x}");
    }
    let stats = server.shutdown();
    assert_eq!(stats.duplicate_executions, 0, "exactly-once violated");
    assert_eq!(stats.completed, 4, "each key executes exactly once across both lives");
    assert!(stats.dedup_hits >= 1, "keyed retries must hit the dedup table");
    let _ = std::fs::remove_file(&jpath);
}

#[test]
fn torn_tail_crash_loses_only_the_unsynced_suffix() {
    let spec = CgraSpec::np_cgra(4, 4);
    let jpath = temp_journal("torn");
    let (layer, weights) = model();
    {
        // fsync_every of 100 keeps every record buffered; the sever writes
        // 3 torn bytes of the pending buffer, which replay must discard.
        let jcfg = JournalConfig::new(&jpath)
            .with_fsync_every(100)
            .with_fsync_interval(Duration::from_secs(3600));
        let (server, _) = Server::start_with_journal(config(&spec, 0), jcfg).unwrap();
        let id = server.register("dw", layer.clone(), weights.clone()).unwrap();
        server.replay_recovered().unwrap();
        server
            .submit_idem(id, Tensor::random(2, 8, 8, 5), None, Priority::Interactive, 0xF00D)
            .unwrap();
        server.hard_crash(3);
    }
    let bytes = journal::read_file(&jpath).unwrap();
    let outcome = journal::replay_bytes(&bytes).unwrap();
    assert!(
        !matches!(outcome.tail, journal::TailState::Clean),
        "a mid-buffer crash must leave a torn tail"
    );
    let (server, report) = Server::start_with_journal(config(&spec, 1), JournalConfig::new(&jpath)).unwrap();
    assert_eq!(
        report.replayed, 0,
        "the unsynced admit was torn off; replay recovers only whole records"
    );
    assert!(report.torn_tail_bytes > 0, "recovery must report the torn bytes");
    let _ = server.register("dw", layer, weights).unwrap();
    assert_eq!(server.replay_recovered().unwrap(), 0);
    let _ = server.shutdown();
    let _ = std::fs::remove_file(&jpath);
}

#[test]
fn journal_off_is_inert() {
    let spec = CgraSpec::np_cgra(4, 4);
    let (layer, weights) = model();
    let server = Server::start(config(&spec, 1));
    let id = server.register("dw", layer.clone(), weights.clone()).unwrap();
    let ifm = Tensor::random(2, 8, 8, 77);
    let golden = reference::run_layer(&layer, &ifm, &weights).unwrap();
    // An idempotency key without a journal is ignored: the request
    // executes normally and nothing is recorded anywhere.
    let ticket = server
        .submit_idem(id, ifm.clone(), None, Priority::Interactive, 0xD15AB1E)
        .unwrap();
    assert_eq!(ticket.wait().unwrap().output, golden);
    let again = server.submit_idem(id, ifm, None, Priority::Interactive, 0xD15AB1E).unwrap();
    assert_eq!(
        again.wait().unwrap().output,
        golden,
        "no dedup without a journal: it executes again"
    );
    server.flush_journal();
    let stats = server.shutdown();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.journal_appends, 0);
    assert_eq!(stats.journal_fsyncs, 0);
    assert_eq!(stats.journal_bytes, 0);
    assert_eq!(stats.dedup_hits, 0);
    assert_eq!(stats.duplicate_executions, 0);
    assert!(!stats.to_string().contains("journal:"));
}

#[test]
fn concurrent_duplicate_parks_on_the_owner_and_shares_its_reply() {
    let spec = CgraSpec::np_cgra(4, 4);
    let jpath = temp_journal("park");
    let (layer, weights) = model();
    // Zero workers: the first keyed submit owns a reservation that cannot
    // resolve yet, so the second parks as a waiter instead of executing.
    let (server, _) = Server::start_with_journal(config(&spec, 0), JournalConfig::new(&jpath)).unwrap();
    let id = server.register("dw", layer.clone(), weights.clone()).unwrap();
    server.replay_recovered().unwrap();
    let ifm = Tensor::random(2, 8, 8, 31);
    let golden = reference::run_layer(&layer, &ifm, &weights).unwrap();
    let first = server
        .submit_idem(id, ifm.clone(), None, Priority::Interactive, 0xCAFE)
        .unwrap();
    let second = server.submit_idem(id, ifm, None, Priority::Interactive, 0xCAFE).unwrap();
    let stats_before = server.stats();
    assert_eq!(stats_before.submitted, 1, "the duplicate must not be admitted");
    // A graceful shutdown with zero workers rejects the queued owner; the
    // parked waiter shares that terminal outcome rather than hanging.
    let stats = server.shutdown();
    assert!(first.wait().is_err());
    assert!(second.wait().is_err(), "the waiter must share the owner's outcome");
    assert_eq!(stats.duplicate_executions, 0);
    let _ = std::fs::remove_file(&jpath);
    // A fresh journaled life with workers: both a live submit and a
    // duplicate complete with one execution.
    let jpath2 = temp_journal("park2");
    let (server, _) = Server::start_with_journal(config(&spec, 1), JournalConfig::new(&jpath2)).unwrap();
    let id = server.register("dw", layer, weights).unwrap();
    server.replay_recovered().unwrap();
    let ifm = Tensor::random(2, 8, 8, 31);
    let t1 = server
        .submit_idem(id, ifm.clone(), None, Priority::Interactive, 0xCAFE)
        .unwrap();
    assert_eq!(t1.wait().unwrap().output, golden);
    // The reply is delivered before its Ack is journaled (a reply never
    // waits on the journal's inline fsync), so the key's reservation can
    // outlive `wait()`: a retry sent now may park on it and
    // share the owner's reply instead of being redelivered. The append
    // count is stored under the journal lock before the reservation is
    // released and the retry needs that lock, so admit + ack = 2 appends
    // means the retry can only find the dedup entry.
    let acked = Instant::now() + Duration::from_secs(10);
    while server.stats().journal_appends < 2 {
        assert!(Instant::now() < acked, "the ack was never journaled");
        std::thread::sleep(Duration::from_micros(200));
    }
    let t2 = server.submit_idem(id, ifm, None, Priority::Interactive, 0xCAFE).unwrap();
    let r2 = t2.wait().unwrap();
    assert_eq!(r2.output, golden, "dedup redelivery diverged");
    assert_eq!(r2.batch_size, 0, "a redelivered reply marks itself (batch_size 0)");
    let stats = server.shutdown();
    assert_eq!(stats.completed, 1, "one execution for two keyed submits");
    assert_eq!(stats.dedup_hits, 1);
    assert_eq!(stats.duplicate_executions, 0);
    let _ = std::fs::remove_file(&jpath2);
}
