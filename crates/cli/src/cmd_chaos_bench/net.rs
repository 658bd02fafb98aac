//! The `--net` mode: the overload soak through the loopback socket
//! front-end, beside three hostile connection populations.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use npcgra::net::frame::code as wire_code;
use npcgra::net::{ClientError, NetChaos, NetChaosConfig, NetClient, NetConfig, NetServer, TenantSpec};
use npcgra::serve::{OverloadConfig, Priority, Server};

use super::harness::{self, Classes, Common, ALPHA, DELAY_TARGET, HANG_CAP, RES};
use crate::args::Flags;
use crate::endpoints::{build_models, Endpoints};

/// Total connections the soak holds open, and how many of them are the
/// healthy tenant's (spread evenly over the `clients` driver threads) and
/// the rotating hostile cast's; the rest are slow-loris sockets.
const CONNS: usize = 560;
const HEALTHY_CONNS: usize = 64;
const HOSTILE: usize = 8;
/// A slow-loris connection must be evicted within this bound.
const READ_TIMEOUT: Duration = Duration::from_millis(500);
/// The reactor's tick, and how many slow-loris sockets are touched (and so
/// may connect) per tick. The listener's accept queue is 128 deep (std's `listen` backlog)
/// and the reactor drains it once per tick; a burst that outruns it has
/// SYNs dropped, and the connecting thread stalls for the 1 s retransmit —
/// longer than a slow-loris socket lives, so the population would never
/// be whole at one time.
const TICK: Duration = Duration::from_millis(2);
const LORIS_PER_TICK: usize = 32;
/// The healthy tenant's token and the hostile cast's (rate-limited) one.
const FLEET: &[u8] = b"tok-fleet";
const GREMLIN: &[u8] = b"tok-gremlin";

/// A well-formed 17-byte request header declaring a 64 KiB payload that a
/// slow-loris connection then trickles at ~10 bytes/second: the decoder
/// stays mid-frame forever, which is exactly the window the read timeout
/// guards. (The checksum field is garbage, but it is never reached.)
const LORIS_PREFIX: [u8; 17] = [b'N', b'P', b'C', b'1', 1, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];

/// One healthy driver's redemption tallies.
#[derive(Default)]
struct NetAgg {
    classes: Classes,
    /// Admitted requests that resolved to a typed serve error.
    admitted_failed: u64,
    /// Submitted tags that never got any reply (the cardinal sin).
    unresolved: u64,
    /// Healthy connections that broke (io/wire/close) — must be zero.
    broken: u64,
    /// Healthy submits the socket refused — must be zero.
    submit_failed: u64,
    /// Replies that diverged from the golden reference.
    wrong: u64,
    /// A few admitted-failure messages (each carries its request id).
    sample_failures: Vec<String>,
}

impl NetAgg {
    fn merge(&mut self, other: NetAgg) {
        self.classes.merge(&other.classes);
        self.admitted_failed += other.admitted_failed;
        self.unresolved += other.unresolved;
        self.broken += other.broken;
        self.submit_failed += other.submit_failed;
        self.wrong += other.wrong;
        self.sample_failures.extend(other.sample_failures);
        self.sample_failures.truncate(3);
    }
}

/// Net soak. A zero-chaos control phase first proves wire replies
/// bit-exact with in-process submits; closed-loop calibration over
/// loopback finds the wire capacity; then the open-loop drive runs
/// alongside slow-loris connections trickling half-frames, malformed-frame
/// speakers and seeded chaos connections corrupting and resetting
/// mid-flight (`--chaos-seed`) — while every request of the healthy tenant
/// must still resolve, bit-exactly, within the SLO.
pub fn run_net(flags: &Flags, common: &Common) -> Result<(), String> {
    let chaos_seed: u64 = flags.parse_or("chaos-seed", 0xC4A05)?;
    let drivers = common.clients;
    let per = HEALTHY_CONNS.div_ceil(drivers);
    let healthy_conns = per * drivers;
    let loris = CONNS.saturating_sub(healthy_conns + HOSTILE);

    let overload = OverloadConfig {
        delay_target: Some(DELAY_TARGET),
        ..OverloadConfig::default()
    };
    let server = Arc::new(Server::start(common.serve_config().with_overload(overload)));
    let eps = Endpoints::register(&server, &build_models("v1", ALPHA, RES)?)?;
    let net_config = NetConfig::default()
        .with_max_conns(CONNS * 2)
        .with_read_timeout(Some(READ_TIMEOUT))
        .with_idle_timeout(Some(Duration::from_secs(30)))
        .with_write_backlog_limit(1 << 20)
        .with_tick(TICK)
        .with_tenant(TenantSpec::open("fleet", FLEET))
        .with_tenant(TenantSpec::open("gremlin", GREMLIN).with_rate(400.0, 64));
    let net = NetServer::start(Arc::clone(&server), net_config).map_err(|e| format!("starting front-end: {e}"))?;
    let addr = net.local_addr();
    println!(
        "chaos-bench --net {} behind {addr}; control parity, then \
         {healthy_conns} healthy + {loris} slow-loris + {HOSTILE} hostile connection(s)",
        common.fleet(&eps),
    );
    let connect = |what: &str| NetClient::connect(addr, FLEET).map_err(|e| format!("{what} connect: {e}"));
    let wire_id = |idx: usize| eps.ids[idx].index() as u32;

    let mut control = connect("control")?;
    let probes = eps.len().min(4);
    for idx in 0..probes {
        let input = eps.input(idx, 0xC0_0000 + idx as u64);
        let reply = control
            .call(wire_id(idx), &input, Priority::Interactive, None, HANG_CAP)
            .map_err(|e| format!("control call {idx}: {e}"))?;
        let resp = reply
            .result
            .map_err(|(code, msg)| format!("control request {} refused (code {code}): {msg}", reply.request_id))?;
        let local = server
            .submit(eps.ids[idx], input)
            .and_then(|ticket| ticket.wait_timeout(HANG_CAP))
            .map_err(|e| format!("control in-process submit {idx}: {e}"))?;
        if resp.tensor() != Some(local.output) {
            return Err(format!(
                "control: wire reply for request {} diverged from the in-process submit — \
                 the wire path is not bit-exact",
                reply.request_id
            ));
        }
    }
    let _ = control.bye();
    drop(control);
    println!("control: wire replies bit-exact with in-process submits on {probes} endpoint(s)");

    // One connection per driver, one request in flight on each.
    let calib: Vec<Mutex<NetClient>> = (0..drivers)
        .map(|_| connect("calibration").map(Mutex::new))
        .collect::<Result<_, _>>()?;
    let capacity_rps = harness::calibrate("front-end", drivers, |c, r| {
        let idx = (c + r * drivers) % eps.len();
        let input = eps.input(idx, (c * 1_000_000 + r) as u64);
        let mut client = calib[c].lock().expect("one driver per connection");
        let reply = client.call(wire_id(idx), &input, Priority::Batch, None, HANG_CAP);
        reply.is_ok_and(|reply| reply.result.is_ok())
    })?;
    for client in calib {
        let _ = client.into_inner().expect("calibration is over").bye();
    }
    let offered_rps = common.announce_drive("wire capacity", "req", capacity_rps);

    // The hostile populations come up half a second before the drive.
    let stop = AtomicBool::new(false);
    let peak_conns = AtomicU64::new(0);
    let drive_start = Instant::now() + Duration::from_millis(500);
    let drive_end = drive_start + common.window;
    let live = || !stop.load(Ordering::Relaxed) && Instant::now() < drive_end;
    let seed_of = |g: usize| 0x6EED_0000_0000 + g as u64;
    let agg = std::thread::scope(|scope| {
        scope.spawn(|| slow_loris(addr, loris, &stop));
        // Samples the live connection count, so the soak can prove the
        // population target was actually reached.
        scope.spawn(|| {
            while live() {
                peak_conns.fetch_max(net.stats().active_conns, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(25));
            }
        });
        for h in 0..HOSTILE {
            let (eps, live) = (&eps, &live);
            scope.spawn(move || hostile(addr, eps, h as u64 * 10_000, chaos_seed, live));
        }
        // Healthy drivers: each owns `per` connections, paces its share of
        // the open-loop schedule across them, then redeems every tag and
        // audits every reply against the host golden.
        let parts = harness::open_loop(common, offered_rps, drive_start, |d, schedule| -> Result<NetAgg, String> {
            let mut clients = (0..per)
                .map(|k| connect(&format!("driver {d} conn {k}")))
                .collect::<Result<Vec<_>, _>>()?;
            let mut agg = NetAgg::default();
            let mut sent = Vec::new();
            for due in schedule {
                let (idx, conn) = (due.g % eps.len(), due.g % per);
                match clients[conn].submit(wire_id(idx), &eps.input(idx, seed_of(due.g)), due.class, due.deadline) {
                    Ok(tag) => sent.push((conn, tag, due)),
                    Err(_) => agg.submit_failed += 1,
                }
            }
            for (conn, tag, due) in sent {
                let reply = match clients[conn].recv_tag(tag, HANG_CAP) {
                    Ok(reply) => reply,
                    Err(ClientError::Timeout) => {
                        agg.unresolved += 1;
                        continue;
                    }
                    Err(_) => {
                        agg.broken += 1;
                        continue;
                    }
                };
                let class = due.class.index();
                match reply.result {
                    Ok(resp) => {
                        agg.classes.admitted[class] += 1;
                        agg.classes
                            .serve(due.class, Duration::from_micros(resp.latency_us), common.slo);
                        let idx = due.g % eps.len();
                        if resp.tensor() != Some(eps.golden(idx, &eps.input(idx, seed_of(due.g)))) {
                            agg.wrong += 1;
                            eprintln!("audit: request {} diverged from the golden reference", reply.request_id);
                        }
                    }
                    // Admitted, then a typed failure (deadline, shed): an
                    // SLO miss for Interactive, expected elsewhere.
                    Err((code, message)) if code == wire_code::SERVE && reply.request_id > 0 => {
                        agg.classes.admitted[class] += 1;
                        agg.admitted_failed += 1;
                        if agg.sample_failures.len() < 3 {
                            agg.sample_failures.push(message);
                        }
                    }
                    Err(_) => agg.classes.rejected[class] += 1,
                }
            }
            for client in &mut clients {
                let _ = client.bye();
            }
            Ok(agg)
        });
        stop.store(true, Ordering::Relaxed);
        parts.into_iter().try_fold(NetAgg::default(), |mut agg, part| {
            agg.merge(part?);
            Ok::<_, String>(agg)
        })
    })?;

    let net_stats = net.shutdown();
    let server = Arc::try_unwrap(server).unwrap_or_else(|_| panic!("net front-end still holds the server"));
    let stats = server.shutdown();
    println!("{net_stats}");
    println!("{stats}");

    let peak = peak_conns.load(Ordering::Relaxed);
    let classes = &agg.classes;
    let shed = stats.overload_sheds.iter().sum::<u64>()
        + stats.rejected_queue_full
        + stats.degraded_sheds
        + net_stats.rejected_backpressure;
    println!(
        "net: {} over {healthy_conns} healthy conn(s) (peak {peak} live); {} admitted-then-failed",
        classes.summary(common.slo),
        agg.admitted_failed,
    );
    for msg in &agg.sample_failures {
        println!("net: sample admitted failure: {msg}");
    }
    println!(
        "net: {} slow-loris + {} idle evictions, {} malformed, {} mid-flight disconnects ({} tombstoned)",
        net_stats.evicted_slow_loris,
        net_stats.evicted_idle,
        net_stats.rejected_malformed,
        net_stats.midflight_disconnects,
        net_stats.tombstoned_inflight,
    );

    if agg.submit_failed > 0 || agg.broken > 0 {
        return Err(format!(
            "{} healthy submit(s) failed and {} healthy connection(s) broke — the front-end must never \
             damage a well-behaved tenant's connection",
            agg.submit_failed, agg.broken
        ));
    }
    harness::sound(agg.unresolved, agg.wrong, &stats.worker_exits)?;
    if net_stats.active_conns != 0 {
        return Err(format!("{} connection(s) leaked past shutdown", net_stats.active_conns));
    }
    if flags.has("assert-slo") {
        let required_peak = (CONNS as u64 * 9) / 10;
        if peak < required_peak {
            return Err(format!(
                "assert-slo: peak concurrency {peak} never reached {required_peak} (90% of {CONNS} connections)"
            ));
        }
        if net_stats.evicted_slow_loris == 0 {
            return Err("assert-slo: no slow-loris eviction fired — the read timeout is not biting".to_string());
        }
        if net_stats.rejected_malformed == 0 {
            return Err("assert-slo: no malformed frame was rejected — the hostile population is broken".to_string());
        }
        if net_stats.midflight_disconnects == 0 {
            return Err("assert-slo: no mid-flight disconnect was observed — the tombstone path went untested".to_string());
        }
        harness::slo_gate(classes, shed, common.slo)?;
    }
    println!(
        "chaos-bench --net PASS: {} offered at {:.1}x wire capacity over peak {peak} \
         connection(s), 0 hung, 0 wrong, 0 broken healthy conns; interactive SLO attainment {:.2}%",
        classes.offered(),
        common.factor,
        classes.attainment() * 100.0
    );
    Ok(())
}

/// The slow-loris population: `n` sockets that send a believable request
/// header and then trickle the payload one byte per 100 ms, staying
/// mid-frame forever. The reactor must evict each within the read
/// timeout; evicted sockets reconnect to hold the population steady.
fn slow_loris(addr: SocketAddr, n: usize, stop: &AtomicBool) {
    let mut socks: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
    while !stop.load(Ordering::Relaxed) {
        for (i, slot) in socks.iter_mut().enumerate() {
            if i % LORIS_PER_TICK == 0 {
                std::thread::sleep(TICK);
            }
            *slot = match slot.take() {
                Some(mut s) => s.write_all(&[0u8]).is_ok().then_some(s),
                None => TcpStream::connect(addr)
                    .ok()
                    .and_then(|mut s| s.write_all(&LORIS_PREFIX).is_ok().then_some(s)),
            };
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// One hostile client: a rotating cast of disconnectors (submit, then hang
/// up with work in flight), malformed-frame speakers, and seeded chaos
/// connections that corrupt, split and reset their writes.
fn hostile(addr: SocketAddr, eps: &Endpoints, mut ord: u64, chaos_seed: u64, live: &(dyn Fn() -> bool + Sync)) {
    let chaos = NetChaosConfig {
        seed: chaos_seed,
        corrupt_rate: 0.15,
        partial_rate: 0.10,
        stall_read_rate: 0.05,
        reset_rate: 0.15,
        stall: Duration::from_millis(20),
    };
    while live() {
        let Ok(mut client) = NetClient::connect(addr, GREMLIN) else {
            std::thread::sleep(Duration::from_millis(50));
            continue;
        };
        let idx = (ord as usize) % eps.len();
        let id = eps.ids[idx].index() as u32;
        match ord % 3 {
            0 => {
                // Mid-flight disconnect: admit work, vanish.
                let _ = client.submit(id, &eps.input(idx, 0xBAD_0000 + ord), Priority::Interactive, None);
                client.hangup();
            }
            1 => {
                // Malformed: speak HTTP at a frame decoder.
                let _ = client.send_raw(b"GET /v1/infer HTTP/1.1\r\nHost: npcgra\r\n\r\n");
                let _ = client.recv_tag(0, Duration::from_millis(200));
            }
            _ => {
                let mut client = client.with_chaos(NetChaos::for_conn(chaos, ord));
                for k in 0..12u64 {
                    if !live() {
                        break;
                    }
                    let input = eps.input(idx, 0xBAD_1000 + ord + k);
                    match client.call(id, &input, Priority::Batch, None, Duration::from_millis(500)) {
                        Ok(_) | Err(ClientError::Timeout) => {}
                        Err(_) => break, // reset or evicted: reconnect
                    }
                }
            }
        }
        ord += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
}
