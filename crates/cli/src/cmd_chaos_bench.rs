//! `chaos-bench` — the soak gates of the serving stack. One harness
//! ([`harness`]: calibrate → drive → audit, written once) and seven modes,
//! each a row of [`MODES`]. Every mode exits nonzero unless every ticket
//! it issued resolved (a stranded reply is counted as *hung* by a bounded
//! wait, never waited on forever), every audited reply was bit-exact
//! against the golden host reference, and no worker thread escaped
//! supervision; its `--assert-*` flag then turns the mode's own claims
//! into hard gates.
//!
//! | mode | target | what attacks it | `--assert-*` adds |
//! |---|---|---|---|
//! | *(none)* fault | `Server`, closed loop | a worker panic on its first batch, seeded bit flips in the simulated machines | `-detection`: every reply audited; ≥ 99 % of corrupted executions tripped an ABFT checksum, and detected corruption was healed by retry |
//! | `--gray` | `Server`, closed loop | seeded wedges, stalls and slowdowns (no bit flips) | `-liveness`: cycle budget + batch watchdog preempted something and the shard recovered by restart; at `--gray-rate 0`, the armed watchdog never fired |
//! | `--overload` | `Server`, open loop at `--overload-factor` × calibrated capacity | its own load: 30 % Interactive (deadline `--slo-ms`) / 40 % Batch / 30 % BestEffort | `-slo`: something was shed, ≥ 50 Interactive admitted, ≥ 99 % of them within the SLO |
//! | `--pipeline` | `Pipeline` (MobileNetV1 chain in `--stages`), a zero-fault control phase then a faulted one | one stage kill, one stage wedge, one corrupted handoff | `-liveness`: control untouched by healing; kill and wedge each failed over to a spare; healing replayed only from the last checkpoint |
//! | `--pipeline --overload` | `Pipeline`: armed-but-idle control, calibration, faulted warm-up, open-loop drive | a stage wedge (watchdog the only preemption path) and a stage kill, then 2× load | `-slo`: watchdog preempted the wedge, kill contained, both failed over, brownout escalated and shed, SLO gate as above |
//! | `--net` | `Server` behind `NetServer`, driven through `NetClient`s after a wire-vs-in-process parity phase | slow-loris, malformed-frame and mid-flight-disconnect/chaos connections beside 2× load | `-slo`: ≥ 90 % of the connection target live at once, every attacker class caught, no connection leaked, SLO gate as above |
//! | `--crash` | journaled `Server` behind `NetServer`, keyed drivers that reconnect and resume, after a journal-off control phase | three hard kills (the first on a stalled core) | `-durability`: recovery replayed something, reconnect resumed something, retries deduplicated, a finished key redelivered without re-executing |
//!
//! `--tier cycle-accurate|fast` selects the shards' backend wherever a row
//! reads it. On the fast tier the same fault plans corrupt and stall the
//! functional executor, so `--assert-detection` also proves ABFT without
//! the cycle-accurate machinery underneath. The three seeds
//! (`--fault-seed`, `--chaos-seed`, `--crash-seed`) select the
//! deterministic fault plan, so a failed soak can be re-run as it failed.
//! Everything else that shapes a soak is a named constant next to the
//! code that uses it.

mod crash;
mod harness;
mod net;
mod pipeline;
mod single;

use npcgra::serve::BackendTier;

use crate::args::Flags;
use harness::Common;

/// One soak mode: how it is selected, what it reads, its defaults for the
/// flags modes share, and its body.
pub struct Mode {
    /// The flags that select it; the first row whose flags are all present
    /// wins.
    select: &'static [&'static str],
    /// Every other flag it reads. Anything else is refused up front.
    reads: &'static str,
    tier: BackendTier,
    workers: usize,
    /// Closed- and open-loop client threads (`--net`, `--crash`: driver
    /// threads).
    clients: usize,
    seconds: f64,
    slo_ms: u64,
    run: fn(&Flags, &Common) -> Result<(), String>,
}

const DEFAULTS: Mode = Mode {
    select: &[],
    reads: "",
    tier: BackendTier::CycleAccurate,
    workers: 4,
    clients: 8,
    seconds: 4.0,
    slo_ms: 250,
    run: single::run_fault,
};

const MODES: [Mode; 7] = [
    Mode {
        select: &["crash"],
        reads: "machine tier workers crash-seed assert-durability",
        workers: 2,
        clients: 4,
        run: crash::run_crash,
        ..DEFAULTS
    },
    Mode {
        select: &["net"],
        reads: "machine tier workers seconds overload-factor slo-ms chaos-seed assert-slo",
        run: net::run_net,
        ..DEFAULTS
    },
    Mode {
        select: &["pipeline", "overload"],
        reads: "machine tier clients seconds overload-factor slo-ms stages spares requests assert-slo",
        // The fast tier gives a whole-model SLO assertion its volume.
        tier: BackendTier::Fast,
        clients: 4,
        slo_ms: 1_000,
        run: pipeline::run_pipeline_overload,
        ..DEFAULTS
    },
    Mode {
        select: &["pipeline"],
        reads: "machine stages spares checkpoint-every requests assert-liveness",
        run: pipeline::run_pipeline,
        ..DEFAULTS
    },
    Mode {
        select: &["overload"],
        reads: "machine tier workers clients seconds overload-factor slo-ms assert-slo",
        run: single::run_overload,
        ..DEFAULTS
    },
    Mode {
        select: &["gray"],
        reads: "machine tier workers clients seconds gray-rate fault-seed assert-liveness",
        run: single::run_gray,
        ..DEFAULTS
    },
    Mode {
        reads: "machine tier workers clients seconds fault-rate fault-seed panic-worker assert-detection",
        seconds: 5.0,
        ..DEFAULTS
    },
];

pub fn run(args: &[String]) -> Result<(), String> {
    let given = |flag: &&str| args.iter().any(|a| a.strip_prefix("--") == Some(flag));
    let mode = MODES
        .iter()
        .find(|m| m.select.iter().all(given))
        .expect("the last row selects on nothing");
    let flags = Flags::parse(args, &format!("{} {}", mode.select.join(" "), mode.reads))?;
    harness::quiet_worker_panics();
    (mode.run)(&flags, &Common::parse(&flags, mode)?)
}
