//! `sim_direct`: one thread, no server. The Table 4 machine (8×8) runs the
//! three full-size Table 5 layers and the 26 DSC layers of
//! MobileNetV1-0.5-64; each repetition runs the set once on the
//! cycle-accurate tier, then on the fast tier until the repetition's time
//! is up, so the tiers share whatever the host is doing.
//!
//! An operation is one layer run. `throughput_rps`, the latencies and
//! `ofm_mwords_per_s` are the fast tier's; `sim_mcycles_per_s` is the
//! cycle tier's simulated cycles per host second of its own pass.

use std::time::Instant;

use npcgra::nn::models;
use npcgra::serve::BackendTier;
use npcgra::sim::{backend_for, ExecutionBackend};
use npcgra::{CgraSpec, CompiledLayer, ConvLayer};

use crate::common::{bench_metrics, peak_rss_mb, Outcome, RunArgs, Setups};
use crate::probes::{compile_set, run_set, sim_probes, Metrics, SetPass};
use crate::record::{PhaseKind, PhaseLog, Sample};
use crate::stats::{median, nearest_rank, Summary};
use crate::traffic::{sim_direct_set, Endpoint};

/// Simulated cycles the set is charged on the Table 4 machine: the sum of
/// the §5 closed forms at the commit that defined the benchmark. Simulated
/// time must not drift, so a run whose set is charged anything else counts
/// as a failure on both tiers.
const CYCLES_TOTAL: u64 = 2_300_353;

struct Program {
    compiled: Vec<CompiledLayer>,
    cycle: Box<dyn ExecutionBackend>,
    fast: Box<dyn ExecutionBackend>,
}

/// Fast-tier passes that follow each cycle-tier pass.
const FAST_PASSES: usize = 8;

/// One cycle-tier pass and the fast-tier passes after it.
struct Round {
    log: PhaseLog,
    cycle_ns: Vec<u64>,
    fast_ns: Vec<Vec<u64>>,
}

fn chain() -> Vec<ConvLayer> {
    models::mobilenet_v1(0.5, 64).dsc_layers().cloned().collect()
}

/// Log one pass: a layer run is correct when its output is the golden one
/// and its charge is the closed form's.
fn log_pass(log: &mut PhaseLog, pass: &SetPass, closed: &[u64], eps: &[Endpoint], start_ns: u64) {
    let mut at = start_ns;
    for (i, ep) in eps.iter().enumerate() {
        let ok = !pass.bits_wrong[i] && pass.reports[i].cycles == closed[i];
        if !ok {
            log.failed += 1;
            log.mismatches += u64::from(pass.bits_wrong[i]);
        } else {
            log.correct += 1;
            log.within_slo += 1;
        }
        if log.kind == PhaseKind::Traced {
            log.spans.push(Sample {
                endpoint: i as u32,
                due_ns: at,
                late_ns: 0,
                call_ns: 0,
                core_ns: pass.ns[i],
                done_ns: at + pass.ns[i],
                words: ep.out_words(),
                batch: 1,
                ok,
                mismatch: pass.bits_wrong[i],
            });
        }
        at += pass.ns[i];
    }
}

/// The end-to-end figures. Each layer's median time over every pass of the
/// run is taken, per tier: a layer run is the finest repetition there is,
/// and a burst of host noise hits some layers of a pass, not a layer in
/// most passes. Their sum is the set's time; the fast tier's 29 medians
/// are the latency population, whose percentiles are nearest-rank over
/// layers, not over samples, so the ten-beyond rule has nothing to guard.
/// The quartiles reported beside the rates are the rounds' own rates.
fn end_to_end(rounds: &[Round], eps: &[Endpoint], setup_s: Summary) -> Metrics {
    let typical = |passes: Vec<&Vec<u64>>| -> Vec<f64> {
        (0..eps.len())
            .map(|i| median(&passes.iter().map(|p| p[i] as f64).collect::<Vec<_>>()))
            .collect()
    };
    let with_quartiles = |value: f64, per_round: Vec<f64>| Summary {
        value,
        ..Summary::over(&per_round)
    };
    let cycle_s = typical(rounds.iter().map(|r| &r.cycle_ns).collect()).iter().sum::<f64>() / 1e9;
    let mut fast_ms: Vec<f64> = typical(rounds.iter().flat_map(|r| &r.fast_ns).collect())
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    fast_ms.sort_by(f64::total_cmp);
    let fast_s = fast_ms.iter().sum::<f64>() / 1e3;
    let cycles = CYCLES_TOTAL as f64;
    let words: f64 = eps.iter().map(|e| e.out_words() as f64).sum();
    let cycle_secs = |r: &Round| r.cycle_ns.iter().sum::<u64>() as f64 / 1e9;
    let fast_pass_secs = |r: &Round| r.log.secs / FAST_PASSES as f64;
    let per_round = |figure: &dyn Fn(&Round) -> f64| rounds.iter().map(figure).collect::<Vec<_>>();
    let n = eps.len() as f64;
    vec![
        (
            "throughput_rps",
            with_quartiles(n / fast_s, per_round(&|r| n / fast_pass_secs(r))),
        ),
        ("lat_p50_ms", Summary::one(nearest_rank(&fast_ms, 50.0), eps.len())),
        ("lat_p90_ms", Summary::one(nearest_rank(&fast_ms, 90.0), eps.len())),
        (
            "slo_met_share",
            Summary::over(&per_round(&|r| r.log.within_slo as f64 / r.log.attempted() as f64)),
        ),
        (
            "sim_mcycles_per_s",
            with_quartiles(cycles / cycle_s / 1e6, per_round(&|r| cycles / cycle_secs(r) / 1e6)),
        ),
        (
            "ofm_mwords_per_s",
            with_quartiles(words / fast_s / 1e6, per_round(&|r| words / fast_pass_secs(r) / 1e6)),
        ),
        ("setup_s", setup_s),
        ("peak_rss_mb", Summary::one(peak_rss_mb(), 1)),
    ]
}

pub fn run(args: RunArgs) -> Outcome {
    let spec = CgraSpec::table4();
    let pool = sim_direct_set(args.seed);
    let eps = &pool.value;
    let setup = || Program {
        compiled: compile_set(eps, &spec),
        cycle: backend_for(BackendTier::CycleAccurate, &spec),
        fast: backend_for(BackendTier::Fast, &spec),
    };
    let mut setups = Setups::default();
    let mut program = setups.burst(args.seconds, setup, drop);
    let closed: Vec<u64> = program.compiled.iter().map(|c| c.timing_report().cycles).collect();
    let drifted = closed.iter().sum::<u64>() != CYCLES_TOTAL;
    if drifted {
        eprintln!(
            "sim_direct: the set is charged {} simulated cycles, the benchmark pins {CYCLES_TOTAL}",
            closed.iter().sum::<u64>()
        );
    }

    // Warm-up: the fast tier twice; the cycle tier's pass is long enough
    // to warm itself.
    for _ in 0..2 {
        run_set(program.fast.as_mut(), &program.compiled, eps);
    }
    // Rounds fill the run's time; a traced run alternates untraced and
    // traced rounds and leaves a quarter of its time to the probes.
    let budget_s = if args.trace { args.seconds * 0.75 } else { args.seconds };
    let t0 = Instant::now();
    let now_ns = || t0.elapsed().as_nanos() as u64;
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.is_empty() || (rounds.len() < 2 && args.trace) || t0.elapsed().as_secs_f64() < budget_s {
        let kind = if args.trace && rounds.len() % 2 == 1 {
            PhaseKind::Traced
        } else {
            PhaseKind::Measure
        };
        let mut log = PhaseLog::empty(kind, 0.0);
        let start = now_ns();
        let cycle = run_set(program.cycle.as_mut(), &program.compiled, eps);
        log_pass(&mut log, &cycle, &closed, eps, start);
        let mut fast_ns = Vec::with_capacity(FAST_PASSES);
        for _ in 0..FAST_PASSES {
            let start = now_ns();
            let pass = run_set(program.fast.as_mut(), &program.compiled, eps);
            log_pass(&mut log, &pass, &closed, eps, start);
            fast_ns.push(pass.ns);
        }
        log.secs = fast_ns.iter().flatten().sum::<u64>() as f64 / 1e9;
        log.failed += u64::from(drifted);
        rounds.push(Round {
            log,
            cycle_ns: cycle.ns,
            fast_ns,
        });
    }

    let logs: Vec<&PhaseLog> = rounds.iter().map(|r| &r.log).collect();
    let attempted = logs.iter().map(|l| l.attempted()).sum();
    let failed = logs.iter().map(|l| l.failed).sum();
    let (metrics, spans) = if args.trace {
        let mismatches = logs.iter().map(|l| l.mismatches).sum();
        // `throughput` counts both tiers' runs per fast-tier second, which
        // is all the traced-against-untraced ratio needs.
        let owned: Vec<PhaseLog> = rounds.into_iter().map(|r| r.log).collect();
        let mut metrics = bench_metrics(&owned, pool.build_s, mismatches);
        metrics.extend(sim_probes(eps, &spec, &chain(), 2, args.seconds / 4.0));
        let spans = owned.iter().flat_map(|l| &l.spans).map(|s| (*s, s.core_ns as f64)).collect();
        (metrics, spans)
    } else {
        drop(program);
        drop(setups.burst(args.seconds, setup, drop));
        (end_to_end(&rounds, eps, setups.summary()), Vec::new())
    };
    Outcome {
        attempted,
        failed,
        wrong: failed,
        metrics,
        spans,
    }
}
