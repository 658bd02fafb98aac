//! `pipeline_saturate`: MobileNetV1-0.25-32's 26 DSC layers served whole
//! through the 2-stage `Pipeline`, closed loop, 4 inferences in flight.
//! An operation is one inference.

use std::hint::black_box;
use std::time::Instant;

use npcgra::serve::{BackendTier, IntegrityMode, Pipeline, ServeConfig};
use npcgra::sim::{backend_for, CompiledModel};
use npcgra::Tensor;

use crate::common::{bench_metrics, Outcome, RunArgs, Setups};
use crate::drive::{closed_loop, Pool};
use crate::probes::sim_probes;
use crate::record::{measured_plan, median_rate, of_kind, served, span_p50, traced_plan, PhaseKind, Recorder, Sample};
use crate::served::spec;
use crate::stats::{median, Summary};
use crate::traffic::{pipeline_chain, Chain, Req, Source};

const STAGES: usize = 2;
const WINDOW: usize = 4;
/// Latency limit of one whole-model inference.
const INFERENCE_SLO_NS: u64 = 100_000_000;

impl Pool for Chain {
    fn input(&self, req: &Req) -> &Tensor {
        &self.inputs[req.draw.input]
    }

    fn golden(&self, req: &Req) -> &Tensor {
        &self.golden[req.draw.input]
    }
}

fn compile(chain: &Chain) -> CompiledModel {
    CompiledModel::compile(&chain.name, &chain.layers, &spec(), STAGES).expect("the DSC chain compiles")
}

/// One thread runs the chain layer by layer on a fast-tier backend, as a
/// stage shard does but with no pipeline around it; ms per inference.
fn direct_chain_ms(chain: &Chain, model: &CompiledModel) -> f64 {
    let mut backend = backend_for(BackendTier::Fast, &spec());
    backend.set_integrity_mode(IntegrityMode::Verify);
    let runs: Vec<f64> = (0..20)
        .map(|i| {
            let t0 = Instant::now();
            let mut act = chain.inputs[i % chain.inputs.len()].clone();
            for (l, weights) in chain.weights.iter().enumerate() {
                act = backend.run_layer(model.layer(l), &act, weights).expect("the chain runs").0;
            }
            black_box(act);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&runs)
}

pub fn run(args: RunArgs) -> Outcome {
    let pool = pipeline_chain(args.seed);
    let chain = &pool.value;
    let config = ServeConfig::for_spec(&spec())
        .with_backend_tier(BackendTier::Fast)
        .with_pipeline_stages(STAGES);
    let setup = || Pipeline::start(config, compile(chain), chain.weights.clone()).expect("the weights fit the model");
    let mut setups = Setups::default();
    let pipe = setups.burst(args.seconds, setup, |p| drop(p.shutdown()));

    let plan = if args.trace {
        traced_plan(args.seconds)
    } else {
        measured_plan(args.seconds)
    };
    let mut rec = Recorder::start(&plan, INFERENCE_SLO_NS, || pipe.stats().cycles_charged);
    closed_loop(&mut rec, chain, &mut Source::new(args.seed, 1), WINDOW, |_, input| {
        pipe.submit(input)
    });
    let logs = rec.finish();
    drop(pipe.shutdown());
    let s = served(&logs);

    if !args.trace {
        drop(setups.burst(args.seconds, setup, |p| drop(p.shutdown())).shutdown());
        return Outcome::end_to_end(s, setups.summary());
    }

    let model = compile(chain);
    let traced = of_kind(&logs, PhaseKind::Traced);
    let spans: Vec<Sample> = traced.iter().flat_map(|l| l.spans.iter().copied()).collect();
    let one = |v: f64| Summary::one(v, spans.len());
    let direct_ms = direct_chain_ms(chain, &model);
    let rate = median_rate(&traced);
    let predicted: Vec<f64> = model.stages().iter().map(|s| s.predicted_cycles() as f64).collect();
    let traced_ops: u64 = traced.iter().map(|l| l.correct).sum();

    let mut m = bench_metrics(&logs, pool.build_s, s.mismatches);
    m.extend([
        ("bench.lat_p99_ms", s.lat_p99_ms),
        ("serve.submit_us_p50", one(span_p50(&spans, 1e3, |s| s.call_ns))),
        (
            "serve.pipeline_core_latency_ms_p50",
            one(span_p50(&spans, 1e6, |s| s.core_ns)),
        ),
        ("serve.pipeline_direct_chain_ms", one(direct_ms)),
        // Stage-thread seconds spent per inference, over the seconds one
        // thread needs for the same chain: 1 would be a free pipeline.
        ("serve.pipeline_overhead_ratio", one(STAGES as f64 / rate / (direct_ms / 1e3))),
        (
            "serve.pipeline_stage_pred_imbalance",
            one(predicted.iter().copied().fold(0.0, f64::max) / (predicted.iter().sum::<f64>() / predicted.len() as f64)),
        ),
        (
            "serve.pipeline_handoff_words",
            one(model.stages().iter().map(|s| s.handoff_words()).sum::<u64>() as f64),
        ),
        (
            "serve.sim_cycles_per_op",
            one(traced.iter().map(|l| l.cycles).sum::<u64>() as f64 / traced_ops as f64),
        ),
    ]);
    m.extend(sim_probes(&chain.units(), &spec(), &chain.layers, STAGES, args.seconds / 5.0));

    Outcome {
        attempted: s.attempted,
        failed: s.failed,
        wrong: s.mismatches,
        metrics: m,
        spans: spans.iter().map(|s| (*s, direct_ms * 1e6)).collect(),
    }
}
