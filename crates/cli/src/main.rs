//! `npcgra` — the NP-CGRA reproduction's command line.
//!
//! ```text
//! npcgra run-layer  --kind dw --channels 32 --size 112x112 --stride 1 [--machine 8x8] [--relu] [--mapping auto|matmul|batched]
//! npcgra time-model --model v1|v2|alexnet [--alpha 0.5] [--res 128] [--machine 8x8] [--batched]
//! npcgra trace      --kind dw --channels 2 --size 8x8 [--machine 2x2] [--cycles 40]
//! npcgra energy     --kind dw --channels 8 --size 24x24 [--mapping auto|matmul|batched]
//! npcgra disasm     --kind dw --channels 1 --size 8x8 [--machine 2x2] [--relu]
//! npcgra chaos-bench [--workers 4] [--clients 8] [--seconds 5] [--fault-rate 1e-4] [--panic-worker 0] [--assert-detection]
//! npcgra chaos-bench --gray [--gray-rate 2e-5] [--assert-liveness]
//! npcgra chaos-bench --overload [--overload-factor 2] [--slo-ms 250] [--assert-slo]
//! npcgra chaos-bench --pipeline [--stages 4] [--spares 1] [--checkpoint-every 1] [--requests 24] [--assert-liveness]
//! npcgra chaos-bench --pipeline --overload [--assert-slo]
//! npcgra chaos-bench --net [--seconds 4] [--slo-ms 250] [--assert-slo]
//! npcgra chaos-bench --crash [--crash-seed N] [--assert-durability]
//! npcgra serve-net   [--addr 127.0.0.1:0] [--model v1|v2|mixed] [--tenants name:token:rate:burst:quota,...] [--seconds 0]
//! ```

mod args;
mod cmd_chaos_bench;
mod cmd_disasm;
mod cmd_energy;
mod cmd_run_layer;
mod cmd_serve_net;
mod cmd_time_model;
mod cmd_trace;
mod endpoints;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "run-layer" => cmd_run_layer::run(rest),
        "time-model" => cmd_time_model::run(rest),
        "trace" => cmd_trace::run(rest),
        "energy" => cmd_energy::run(rest),
        "disasm" => cmd_disasm::run(rest),
        "serve-net" => cmd_serve_net::run(rest),
        "chaos-bench" => cmd_chaos_bench::run(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
npcgra — cycle-accurate NP-CGRA reproduction (DATE 2021)

commands:
  run-layer   run one layer functionally, check against the golden
              reference and print the performance report
  time-model  per-layer timing of MobileNet V1/V2 or AlexNet
  trace       dump a cycle-by-cycle execution trace of one block
  energy      first-order energy estimate of one layer
  disasm      disassemble a mapping's configuration memory (Fig. 3 view)
  serve-net   run the socket front-end as a standalone loopback server
              (DESIGN §17 wire protocol; --tenants arms auth/rate/quota,
              --seconds bounds the run, 0 = serve until killed)
  chaos-bench soak gates of the serving stack; nonzero exit unless every
              ticket resolves, every audited reply is bit-exact against the
              golden reference and no worker escapes supervision. Modes
              (each --assert-* flag turns the mode's claims into gates):
                (none)      worker panic + seeded bit flips, closed loop
                --gray      seeded wedges/stalls/slowdowns vs the watchdog
                --overload  open loop at a multiple of calibrated capacity,
                            mixed priorities, Interactive SLO
                --pipeline  whole MobileNetV1 chain as a stage pipeline: a
                            stage kill, a wedge and a corrupted handoff
                --pipeline --overload
                            a faulted pipeline under open-loop overload
                --net       --overload through the socket front-end beside
                            slow-loris/malformed/disconnect attackers
                --crash     keyed traffic across hard kills of the
                            journaled core, exactly-once
              (numbers come from npbench; chaos-bench only gates)

Every command fails on a flag it does not read.

flags:
  --machine RxC       array size (default 8x8, the Table 4 machine)
  --kind dw|pw        layer kind for run-layer/trace/energy/disasm
  --channels N        channels (dw) or in,out channels (pw: --channels 32,64)
  --size HxW          feature-map size
  --stride S          stride (dw only, default 1)
  --relu / --leaky N  fused activation
  --mapping auto|matmul|batched
                      run-layer, energy
  --model v1|v2|v3|alexnet, --alpha A, --res R
                      time-model
  --batched           use §5.4 channel batching where it helps (time-model)
  --cycles N          max trace lines (trace)
  --tier cycle-accurate|fast
                      execution backend (serve-net, chaos-bench)
  --workers N, --clients N, --seconds S
                      chaos-bench shards, load threads and soak window
  --fault-rate P, --panic-worker W, --assert-detection
                      chaos-bench fault soak
  --gray, --gray-rate P, --assert-liveness
                      chaos-bench gray-failure soak
  --overload, --overload-factor F, --slo-ms N, --assert-slo
                      chaos-bench open-loop soaks (--overload, --net,
                      --pipeline --overload)
  --pipeline, --stages N, --spares N, --checkpoint-every N, --requests N
                      chaos-bench whole-model pipeline soaks
  --net, --crash, --assert-durability
                      chaos-bench socket front-end and crash soaks
  --fault-seed N, --chaos-seed N, --crash-seed N
                      chaos-bench: the deterministic fault plan (fault/gray,
                      --net, --crash) — pass the seed of a failed soak to
                      re-run it
  --addr A, --model v1|v2|mixed, --alpha A, --res R, --workers N,
  --max-batch N, --linger-us N, --tenants LIST, --max-conns N,
  --read-timeout-ms N, --write-timeout-ms N, --idle-timeout-ms N,
  --backlog-limit N, --seconds S
                      serve-net (--linger-us defaults to 0: a free
                      worker takes queued work at once)
";
