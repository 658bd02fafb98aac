//! The three modes that soak a bare single-layer `Server`: fault/detection,
//! `--gray` and `--overload`.

use std::time::Duration;

use npcgra::serve::{ChaosConfig, OverloadConfig, ServeConfig, Server};

use super::harness::{self, Common, ALPHA, DELAY_TARGET, RES};
use crate::args::Flags;
use crate::endpoints::{build_models, Endpoints};

/// Start `config` and register both MobileNets' DSC layers on it.
fn start_mixed(config: ServeConfig) -> Result<(Server, Endpoints), String> {
    let server = Server::start(config);
    let eps = Endpoints::register(&server, &build_models("mixed", ALPHA, RES)?)?;
    Ok((server, eps))
}

/// Batches between shard canary runs while the detection audit is on.
const CANARY_EVERY: u64 = 32;

/// Fault soak: a worker panic on its first batch (`--panic-worker`) plus a
/// seeded Bernoulli bit-flip plan (`--fault-rate`, `--fault-seed`) in the
/// simulated machines, under closed-loop load. With `--assert-detection`
/// every reply is audited and shard canaries run.
pub fn run_fault(flags: &Flags, common: &Common) -> Result<(), String> {
    let fault_rate: f64 = flags.parse_or("fault-rate", 1e-4)?;
    let fault_seed: u64 = flags.parse_or("fault-seed", 0xC6A05)?;
    let assert_detection = flags.has("assert-detection");
    let panic_worker: Option<usize> = flags.parsed("panic-worker")?;

    let chaos = ChaosConfig {
        panic_on_first_batch: panic_worker,
        fault_seed: (fault_rate > 0.0).then_some(fault_seed),
        fault_rate,
        ..ChaosConfig::default()
    };
    let config = common
        .serve_config()
        .with_canary_interval(if assert_detection { CANARY_EVERY } else { 0 })
        .with_chaos(chaos);
    let (server, eps) = start_mixed(config)?;
    println!(
        "chaos-bench {}, {} clients for {:.1}s, fault rate {fault_rate:e} (seed {fault_seed:#x}), \
         panic worker {panic_worker:?}",
        common.fleet(&eps),
        common.clients,
        common.window.as_secs_f64(),
    );

    // Without the detection audit, flipped bits may legitimately reach a
    // reply; the soak then proves survival only.
    let tally = harness::soak(&server, &eps, common, assert_detection);
    let stats = server.shutdown();
    println!("{stats}");

    harness::sound(tally.hung, 0, &stats.worker_exits)?;
    if panic_worker.is_some() && stats.restarts == 0 {
        return Err("injected panic never surfaced as a supervised restart".to_string());
    }
    if assert_detection {
        let (detected, wrong) = (stats.integrity_failed, tally.wrong);
        println!(
            "detection: {detected} checksum trips, {wrong} silently wrong replies, {} recovered, \
             {} quarantined, {} canary runs ({} failed)",
            stats.integrity_recovered, stats.quarantined, stats.canary_runs, stats.canary_failed,
        );
        if detected == 0 {
            return Err(
                "assert-detection: the fault plan never tripped the integrity layer — raise --fault-rate or --seconds"
                    .to_string(),
            );
        }
        // The checksum identities are exact mod 2^16, so an undetected
        // corrupted reply means the flip's error coefficients cancelled in
        // every checksum — bounded below one percent of corruption events.
        let ratio = detected as f64 / (detected + wrong) as f64;
        if ratio < 0.99 {
            return Err(format!(
                "assert-detection: only {:.2}% of corrupted executions were detected \
                 ({wrong} silently wrong replies escaped the checksums)",
                ratio * 100.0
            ));
        }
        if stats.integrity_recovered == 0 {
            return Err("assert-detection: detected corruption was never healed by retry".to_string());
        }
    }
    println!(
        "chaos-bench PASS: {} tickets resolved, 0 hung; {} panic(s) caught, {} restart(s), \
         {} retries, {} quarantined",
        tally.answered, stats.panics_caught, stats.restarts, stats.retries, stats.quarantined
    );
    Ok(())
}

/// A stall burst: this many dead cycles in one op.
const GRAY_STALL_CYCLES: u64 = 100_000;
/// A slowdown: every op of the run takes this many times longer.
const GRAY_SLOWDOWN: u32 = 16;
/// The watchdog cancels a batch past this multiple of its calibrated wall
/// estimate.
pub const WATCHDOG_SLACK: f64 = 4.0;
/// The cycle budget cancels a run past this multiple of its predicted
/// cycles — host-fast runaways, deterministically.
pub const CYCLE_BUDGET: f64 = 8.0;

/// Gray soak: temporal faults — wedges, stalls, slowdowns — at
/// `--gray-rate`, hunted by the cycle budget and the batch watchdog.
/// Bernoulli bit flips stay off, so every run that completes is bit-exact
/// by construction and the audit separates "slow but correct" from
/// "wrong" cleanly. `--gray-rate 0` inverts the soak into the watchdog's
/// false-positive check.
pub fn run_gray(flags: &Flags, common: &Common) -> Result<(), String> {
    // Like --fault-rate, the rate is per (run, tile, cycle) point: a layer
    // spans thousands of points, so 2e-5 means a few percent of runs draw
    // a fault — most batches stay healthy (calibrating the watchdog), a
    // steady minority wedge, stall or crawl.
    let gray_rate: f64 = flags.parse_or("gray-rate", 2e-5)?;
    let fault_seed: u64 = flags.parse_or("fault-seed", 0x6EA417)?;
    if !(0.0..=1.0).contains(&gray_rate) {
        return Err(format!("--gray-rate must be in [0, 1], got {gray_rate}"));
    }

    let chaos = ChaosConfig {
        fault_seed: Some(fault_seed),
        gray_rate,
        gray_stall_cycles: GRAY_STALL_CYCLES,
        gray_slowdown_factor: GRAY_SLOWDOWN,
        ..ChaosConfig::default()
    };
    // Preemption walks the same restart ladder as a panic, and a soak
    // preempts many times: the budget is raised because the point here is
    // recovery, not retirement.
    let config = common
        .serve_config()
        .with_restart_budget(200)
        .with_restart_backoff(Duration::from_micros(100))
        .with_watchdog_slack(WATCHDOG_SLACK)
        .with_cycle_budget(CYCLE_BUDGET)
        .with_chaos(chaos);
    let (server, eps) = start_mixed(config)?;
    println!(
        "chaos-bench --gray {}, {} clients for {:.1}s; \
         gray rate {gray_rate} (seed {fault_seed:#x}), stall {GRAY_STALL_CYCLES} cycles, slowdown {GRAY_SLOWDOWN}x, \
         watchdog slack {WATCHDOG_SLACK}x, cycle budget {CYCLE_BUDGET}x",
        common.fleet(&eps),
        common.clients,
        common.window.as_secs_f64(),
    );

    let tally = harness::soak(&server, &eps, common, true);
    let stats = server.shutdown();
    println!("{stats}");

    harness::sound(tally.hung, tally.wrong, &stats.worker_exits)?;
    if tally.answered == 0 {
        return Err("the soak resolved no tickets at all — too short a window?".to_string());
    }
    if flags.has("assert-liveness") {
        if gray_rate > 0.0 {
            if stats.watchdog_preemptions == 0 {
                return Err("assert-liveness: no batch was ever preempted — raise --gray-rate or --seconds".to_string());
            }
            if stats.restarts == 0 {
                return Err("assert-liveness: preempted shards never recovered via restart".to_string());
            }
            if tally.delivered == 0 {
                return Err("assert-liveness: no reply was ever delivered under gray faults".to_string());
            }
        } else if stats.watchdog_preemptions > 0 {
            return Err(format!(
                "assert-liveness: {} preemption(s) with no faults injected — the watchdog misfires on healthy batches",
                stats.watchdog_preemptions
            ));
        }
    }
    println!(
        "chaos-bench --gray PASS: {} tickets resolved ({} delivered bit-exact), 0 hung, 0 wrong; \
         {} watchdog preemption(s), {} restart(s), {} retries, {} quarantined",
        tally.answered, tally.delivered, stats.watchdog_preemptions, stats.restarts, stats.retries, stats.quarantined
    );
    Ok(())
}

/// Overload soak: calibrate closed-loop capacity, then drive open-loop at
/// `--overload-factor` times it with every overload control on — priority
/// WFQ, CoDel admission and the brownout ladder. Shedding and reordering
/// must not change a single output bit, so every reply is audited.
pub fn run_overload(flags: &Flags, common: &Common) -> Result<(), String> {
    let overload = OverloadConfig {
        delay_target: Some(DELAY_TARGET),
        ..OverloadConfig::default()
    };
    let (server, eps) = start_mixed(common.serve_config().with_overload(overload))?;
    println!(
        "chaos-bench --overload {}; calibrating capacity closed-loop with {} clients",
        common.fleet(&eps),
        common.clients,
    );
    let capacity_rps = harness::calibrate("server", common.clients, |c, r| {
        let idx = (c + r * common.clients) % eps.len();
        harness::answered(server.submit(eps.ids[idx], eps.input(idx, (c * 1_000_000 + r) as u64)))
    })?;
    let offered_rps = common.announce_drive("capacity", "req", capacity_rps);

    let seed_of = |g: usize| 0x5EED_0000_0000 + g as u64;
    let (classes, tally) = harness::drive_and_audit(
        common,
        offered_rps,
        |due| {
            let idx = due.g % eps.len();
            server.submit_with_priority(eps.ids[idx], eps.input(idx, seed_of(due.g)), due.deadline, due.class)
        },
        |g, out| {
            let idx = g % eps.len();
            *out == eps.golden(idx, &eps.input(idx, seed_of(g)))
        },
    );
    let stats = server.shutdown();
    println!("{stats}");

    let shed = stats.overload_sheds.iter().sum::<u64>() + stats.rejected_queue_full + stats.degraded_sheds;
    println!("overload: {}", classes.summary(common.slo));
    println!("overload: {} brownout escalation(s)", stats.brownout_escalations);

    harness::sound(tally.hung, tally.wrong, &stats.worker_exits)?;
    if flags.has("assert-slo") {
        harness::slo_gate(&classes, shed, common.slo)?;
    }
    println!(
        "chaos-bench --overload PASS: {} offered at {:.1}x capacity, 0 hung, 0 wrong; \
         interactive SLO attainment {:.2}%",
        classes.offered(),
        common.factor,
        classes.attainment() * 100.0
    );
    Ok(())
}
