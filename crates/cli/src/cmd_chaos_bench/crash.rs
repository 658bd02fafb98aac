//! The `--crash` mode: exactly-once keyed serving across hard kills of the
//! journaled core (DESIGN §18), audited bit-exactly.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use npcgra::net::frame::WireReply;
use npcgra::net::{ClientError, NetClient, NetConfig, NetServer};
use npcgra::nn::Tensor;
use npcgra::serve::{JournalConfig, Priority, Server};

use super::harness::{self, Common, ALPHA, HANG_CAP, RES};
use crate::args::Flags;
use crate::endpoints::{build_models, Endpoints};

/// Hard kills before the one clean life that must finish every key.
const LIVES: usize = 3;
/// Idempotency keys each of the `clients` driver connections owns.
const KEYS_PER_DRIVER: usize = 16;
/// Journal recovery at the start of a life must stay under this.
const RECOVERY_BOUND: Duration = Duration::from_secs(5);
/// How long a driver waits on one reply before carrying the tag over to
/// the next life's resume set.
const REPLY_WAIT: Duration = Duration::from_millis(250);

/// One keyed request's full plan: the wire endpoint, the deterministic
/// input, and the golden host output every delivery must match bit-exactly
/// no matter which life executes it or which life redelivers it.
struct KeyPlan {
    endpoint: u32,
    input: Tensor,
    golden: Tensor,
}

/// The client idempotency key for global key index `k` (never zero —
/// zero means "no key" on the wire).
fn idem_of(k: usize) -> u64 {
    0xD00D_0000_0000_0000 | (k as u64 + 1)
}

/// One driver's state, carried across server lives: its client (and with
/// it the resume set), which keys it owns, and the audit trail.
struct CrashDriver {
    client: Option<NetClient>,
    keys: Vec<usize>,
    /// Keys confirmed bit-exact against their golden at least once.
    confirmed: HashSet<usize>,
    /// Requests submitted but unreplied when their life ended, polled
    /// again after the next reconnect: (tag, key index).
    outstanding: Vec<(u64, usize)>,
    /// Deliveries for already-confirmed keys (redeliveries and shared
    /// in-flight outcomes), all of which also matched the golden.
    reconfirmed: u64,
    /// Delivered replies that diverged from their key's golden.
    wrong: u64,
}

impl CrashDriver {
    /// Audit one delivered reply against its key's plan. A typed serve
    /// error (shedding, draining) leaves the key unconfirmed for a later
    /// retry; a successful reply must match the golden bit-exactly whether
    /// it is the first delivery or a redelivery.
    fn settle(&mut self, k: usize, reply: &WireReply, plans: &[KeyPlan]) {
        let Ok(resp) = &reply.result else { return };
        if resp.tensor().is_some_and(|out| out == plans[k].golden) {
            if !self.confirmed.insert(k) {
                self.reconfirmed += 1;
            }
        } else {
            self.wrong += 1;
            eprintln!(
                "audit: key {k} (request {}) diverged from the golden reference",
                reply.request_id
            );
        }
    }

    /// Read the replies owed for `sent`, settling each key. `false` when
    /// the connection died: everything not yet read joins the resume set.
    fn collect(&mut self, sent: &[(u64, usize)], plans: &[KeyPlan]) -> bool {
        for (i, &(tag, k)) in sent.iter().enumerate() {
            let client = self.client.as_mut().expect("connected");
            match client.recv_tag(tag, REPLY_WAIT) {
                Ok(reply) => self.settle(k, &reply, plans),
                Err(ClientError::Timeout) => self.outstanding.push((tag, k)),
                Err(_) => {
                    self.outstanding.extend(sent[i..].iter().copied());
                    return false;
                }
            }
        }
        true
    }

    /// This driver's part in one server life: (re)connect, drain the
    /// previous life's unreplied tags, then cycle over its keys. In a
    /// crash life (`keep_retrying`) the pass repeats — confirmed keys turn
    /// into redelivery retries — until the kill severs the connection; in
    /// the final life it repeats until every key is confirmed. Returns the
    /// number of requests the reconnect resumed.
    fn drive_life(&mut self, addr: SocketAddr, plans: &[KeyPlan], keep_retrying: bool) -> u64 {
        let resumed = match &mut self.client {
            Some(c) => c.reconnect(addr).map(|n| n as u64),
            slot @ None => NetClient::connect(addr, b"").map(|c| {
                *slot = Some(c);
                0
            }),
        };
        // A failure means this life is already gone; the next one retries.
        let Ok(resumed) = resumed else { return 0 };
        // Replies for re-sent tags settle their keys before new traffic.
        let owed = std::mem::take(&mut self.outstanding);
        if !self.collect(&owed, plans) {
            return resumed;
        }
        for round in 0.. {
            // Pipelined, not closed-loop: the whole round goes out before
            // any reply is read, so the admission queue is deep when the
            // kill lands and recovery has admitted-unacked work to replay.
            let mut sent: Vec<(u64, usize)> = Vec::new();
            for &k in &self.keys {
                if !keep_retrying && self.confirmed.contains(&k) {
                    continue;
                }
                let (p, client) = (&plans[k], self.client.as_mut().expect("connected"));
                match client.submit_idem(p.endpoint, &p.input, Priority::Interactive, None, idem_of(k)) {
                    Ok(tag) => sent.push((tag, k)),
                    Err(_) => {
                        // The kill landed mid-burst; everything already
                        // sent is owed a reply and resumes next life.
                        self.outstanding.extend(sent);
                        return resumed;
                    }
                }
            }
            if !self.collect(&sent, plans) {
                return resumed;
            }
            // Only the kill ends a crash life, only full confirmation a
            // clean one; the round bounds are backstops, and the pauses
            // keep an all-redelivery round from hot-spinning.
            let done = !keep_retrying && self.keys.iter().all(|k| self.confirmed.contains(k));
            if done || round > if keep_retrying { 10_000 } else { 50 } {
                break;
            }
            std::thread::sleep(Duration::from_millis(if keep_retrying { 1 } else { 5 }));
        }
        resumed
    }
}

/// Phase 0, the journal-off control: the same keyed wire traffic against a
/// plain server must execute every retry (keys are inert without a
/// journal), reply bit-exact, and move no journal counter. Returns the
/// endpoints: every later life registers the same layers in the same
/// order, so ids, inputs and goldens are stable across lives.
fn journal_off_control(common: &Common, tables: &[npcgra::nn::models::Model]) -> Result<Endpoints, String> {
    let server = Arc::new(Server::start(common.serve_config()));
    let eps = Endpoints::register(&server, tables)?;
    let net = NetServer::start(Arc::clone(&server), NetConfig::default()).map_err(|e| format!("control bind: {e}"))?;
    let mut client = NetClient::connect(net.local_addr(), b"").map_err(|e| format!("control connect: {e}"))?;
    let probes = eps.len().min(4);
    for k in 0..probes {
        let input = eps.input(k, 0xC0_0000 + k as u64);
        let golden = eps.golden(k, &input);
        for attempt in 0..2 {
            let tag = client
                .submit_idem(
                    eps.ids[k].index() as u32,
                    &input,
                    Priority::Interactive,
                    None,
                    0xCAFE + k as u64,
                )
                .map_err(|e| format!("control submit: {e}"))?;
            let reply = client.recv_tag(tag, HANG_CAP).map_err(|e| format!("control recv: {e}"))?;
            let out = reply
                .result
                .map_err(|(c, m)| format!("control reply failed (code {c}): {m}"))?
                .tensor();
            if out.as_ref() != Some(&golden) {
                return Err(format!("control: keyed probe {k} attempt {attempt} diverged from the golden"));
            }
        }
    }
    let _ = net.shutdown();
    let server = Arc::try_unwrap(server).unwrap_or_else(|_| panic!("front-end still holds the server"));
    let snap = server.shutdown();
    if snap.journal_appends != 0 || snap.journal_replayed != 0 || snap.dedup_hits != 0 || snap.duplicate_executions != 0 {
        return Err(format!(
            "control: journal counters moved on a journal-less server ({} appends, {} replayed, {} dedup, {} dups)",
            snap.journal_appends, snap.journal_replayed, snap.dedup_hits, snap.duplicate_executions
        ));
    }
    if snap.completed != probes as u64 * 2 {
        return Err(format!(
            "control: expected {} executions (every keyed retry runs without a journal), got {}",
            probes * 2,
            snap.completed
        ));
    }
    println!("  control: {probes} keyed probe(s) executed twice each, bit-exact, journal counters untouched");
    Ok(eps)
}

/// Crash soak: keyed drivers submit through the TCP front-end while the
/// journaled core is hard-killed `LIVES` times at points `--crash-seed`
/// picks, reconnecting with session resume after every kill; then one
/// clean life must finish every key.
pub fn run_crash(flags: &Flags, common: &Common) -> Result<(), String> {
    let crash_seed: u64 = flags.parse_or("crash-seed", 0xC8A5_4EED)?;
    let (tier, drivers) = (common.tier, common.clients);
    let tables = build_models("v1", ALPHA, RES)?;
    let config = common.serve_config();
    let total_keys = drivers * KEYS_PER_DRIVER;

    println!("chaos-bench --crash [{tier}]: phase 0 — journal-off control (inertness + parity)");
    let eps = journal_off_control(common, &tables)?;
    let plans: Vec<KeyPlan> = (0..total_keys)
        .map(|k| {
            let idx = k % eps.len();
            let input = eps.input(idx, 0x1D_0000 + k as u64);
            let golden = eps.golden(idx, &input);
            let endpoint = idx as u32;
            KeyPlan { endpoint, input, golden }
        })
        .collect();

    let jpath = std::env::temp_dir().join(format!("npcgra-crash-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&jpath);
    println!(
        "chaos-bench --crash [{tier}]: phase 1 — {LIVES} hard kill(s) + 1 clean life, {drivers} driver(s) x \
         {KEYS_PER_DRIVER} key(s), {} worker shard(s), seed {crash_seed:#x}, journal {}",
        common.workers,
        jpath.display()
    );

    let mut states: Vec<CrashDriver> = (0..drivers)
        .map(|d| CrashDriver {
            client: None,
            keys: (0..total_keys).filter(|k| k % drivers == d).collect(),
            confirmed: HashSet::new(),
            outstanding: Vec::new(),
            reconfirmed: 0,
            wrong: 0,
        })
        .collect();
    let mut total_replayed = 0u64;
    let mut total_dedup = 0u64;
    let mut total_dups = 0u64;
    let mut total_completed = 0u64;
    let mut resumed_total = 0u64;
    let mut slowest_recovery = Duration::ZERO;
    let mut probe_ok = false;

    for life in 0..=LIVES {
        let crash_this_life = life < LIVES;
        // The first kill lands on a *stalled* core (zero workers): every
        // admit is fsync-durable but nothing can complete, so that crash
        // is guaranteed — on any tier, at any speed — to leave
        // admitted-unacked work for recovery to replay. Later kills run
        // real workers and land wherever the seed puts them.
        let stalled = life == 0;
        let life_config = if stalled { config.with_workers(0) } else { config };
        let (server, report) = Server::start_with_journal(life_config, JournalConfig::new(&jpath).with_fsync_every(1))
            .map_err(|e| format!("life {life}: start: {e}"))?;
        if life == 0 && report.records != 0 {
            return Err(format!("life 0: fresh journal already held {} record(s)", report.records));
        }
        if report.elapsed > RECOVERY_BOUND {
            return Err(format!(
                "life {life}: recovery took {:.1}ms, over the {}ms bound",
                report.elapsed.as_secs_f64() * 1e3,
                RECOVERY_BOUND.as_millis()
            ));
        }
        slowest_recovery = slowest_recovery.max(report.elapsed);
        Endpoints::register(&server, &tables)?;
        let replayed = server.replay_recovered().map_err(|e| format!("life {life}: replay: {e}"))?;
        if replayed != report.replayed {
            return Err(format!(
                "life {life}: recovery stashed {} admit(s) but {replayed} replayed",
                report.replayed
            ));
        }
        total_replayed += replayed as u64;
        if life > 0 {
            println!(
                "  life {life}: recovered {} journal record(s) in {:.1}ms, replayed {replayed} admitted-unacked",
                report.records,
                report.elapsed.as_secs_f64() * 1e3,
            );
        }
        let confirmed_before: usize = states.iter().map(|d| d.confirmed.len()).sum();
        let remaining = total_keys - confirmed_before;
        let server = Arc::new(server);
        // Zero drain: the kill must be a guillotine. A graceful drain
        // would let the workers execute-and-ack the whole backlog before
        // the core is crashed, leaving recovery nothing to prove.
        let net = NetServer::start(Arc::clone(&server), NetConfig::default().with_drain_timeout(Duration::ZERO))
            .map_err(|e| format!("life {life}: bind: {e}"))?;
        let addr = net.local_addr();
        let mut net_slot = Some(net);
        let mut resumed_this_life = 0u64;
        let plans_ref = &plans;
        std::thread::scope(|scope| {
            let handles: Vec<_> = states
                .iter_mut()
                .map(|d| scope.spawn(move || d.drive_life(addr, plans_ref, crash_this_life)))
                .collect();
            if crash_this_life {
                // Kill once this life has made progress — admissions on
                // the stalled life (nothing can complete there),
                // executions on the rest — plus a seeded dwell so the cut
                // lands at varied points mid-flight.
                let goal = if stalled { total_keys / 2 } else { remaining / 3 }.max(1) as u64;
                let patience = Instant::now() + Duration::from_secs(20);
                while Instant::now() < patience {
                    let s = server.stats();
                    // Dedup redeliveries count as progress: a life whose
                    // journal already acked every key executes nothing, and
                    // waiting for completions that can never come would
                    // burn the whole patience window.
                    let progress = if stalled { s.submitted } else { s.completed + s.dedup_hits };
                    if progress >= goal {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                std::thread::sleep(Duration::from_millis(splitmix64(crash_seed ^ life as u64) % 30));
                if let Some(n) = net_slot.take() {
                    let _ = n.shutdown();
                }
            }
            resumed_this_life = handles.into_iter().map(|h| h.join().expect("driver thread")).sum();
            if !crash_this_life {
                // Post-completion retry: a fresh client re-submits a
                // finished key; the reply must come back bit-exact from the
                // dedup table, not from a fresh execution.
                let before = server.stats().dedup_hits;
                let p = &plans_ref[0];
                let delivered = NetClient::connect(addr, b"").ok().is_some_and(|mut probe| {
                    probe
                        .submit_idem(p.endpoint, &p.input, Priority::Interactive, None, idem_of(0))
                        .ok()
                        .and_then(|tag| probe.recv_tag(tag, HANG_CAP).ok())
                        .and_then(|r| r.result.ok())
                        .and_then(|resp| resp.tensor())
                        .is_some_and(|out| out == p.golden)
                });
                probe_ok = delivered && server.stats().dedup_hits > before;
            }
        });
        resumed_total += resumed_this_life;
        if let Some(n) = net_slot.take() {
            let _ = n.shutdown();
        }
        let server = Arc::try_unwrap(server).unwrap_or_else(|_| panic!("front-end still holds the server"));
        let snap = if crash_this_life {
            server.hard_crash((splitmix64(crash_seed.wrapping_add(life as u64).wrapping_mul(0x9E37)) % 48) as usize)
        } else {
            server.shutdown()
        };
        total_completed += snap.completed;
        total_dedup += snap.dedup_hits;
        total_dups += snap.duplicate_executions;
        harness::sound(0, 0, &snap.worker_exits).map_err(|e| format!("life {life}: {e}"))?;
        if snap.journal_errors > 0 {
            return Err(format!("life {life}: {} journal I/O error(s)", snap.journal_errors));
        }
        let confirmed_now: usize = states.iter().map(|d| d.confirmed.len()).sum();
        println!(
            "  life {life} ({}): {} executed, {} dedup redelivery(s), {} resumed tag(s); confirmed {confirmed_now}/{total_keys}",
            match (crash_this_life, stalled) {
                (true, true) => "killed stalled",
                (true, false) => "killed",
                (false, _) => "clean",
            },
            snap.completed,
            snap.dedup_hits,
            resumed_this_life,
        );
    }
    let _ = std::fs::remove_file(&jpath);

    // The audit: every key confirmed bit-exact, nothing lost, nothing
    // double-executed, every redelivery identical to the first delivery.
    let confirmed: usize = states.iter().map(|d| d.confirmed.len()).sum();
    let reconfirmed: u64 = states.iter().map(|d| d.reconfirmed).sum();
    let wrong: u64 = states.iter().map(|d| d.wrong).sum();
    println!(
        "crash audit: {confirmed}/{total_keys} keys confirmed, {reconfirmed} redelivery(s) re-matched, {wrong} wrong; \
         {total_completed} execution(s), {total_dedup} dedup hit(s), {total_dups} duplicate execution(s), \
         {total_replayed} replayed, {resumed_total} resumed, slowest recovery {:.1}ms",
        slowest_recovery.as_secs_f64() * 1e3
    );
    // Durability without bit-exactness is corruption.
    harness::sound(0, wrong, &[])?;
    if confirmed != total_keys {
        return Err(format!(
            "{} admitted key(s) never completed — a journaled request was lost across the crashes",
            total_keys - confirmed
        ));
    }
    if total_dups > 0 {
        return Err(format!(
            "{total_dups} duplicate execution(s) — a key's outcome was recorded twice (exactly-once violated)"
        ));
    }
    if flags.has("assert-durability") {
        if total_replayed == 0 {
            return Err(
                "assert-durability: no kill left admitted-unacked work to replay — the soak never exercised recovery".to_string(),
            );
        }
        if resumed_total == 0 {
            return Err(
                "assert-durability: no reconnect resumed an unreplied request — the session-resume path went untested"
                    .to_string(),
            );
        }
        if total_dedup == 0 {
            return Err("assert-durability: no retry was deduplicated — the exactly-once machinery never engaged".to_string());
        }
        if !probe_ok {
            return Err("assert-durability: the post-completion retry was not redelivered from the dedup table".to_string());
        }
    }
    println!(
        "chaos-bench --crash PASS: {total_keys} keys exactly-once across {LIVES} hard kill(s) — 0 lost, 0 duplicate, \
         0 wrong; {total_replayed} replayed at recovery, {total_dedup} retries deduplicated"
    );
    Ok(())
}

/// SplitMix64 — a tiny seeded generator for kill dwell and torn-tail
/// sizes (private copy; the serve crate's is crate-internal).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
