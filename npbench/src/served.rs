//! The five workloads that serve single layers: the 77 DSC-layer endpoints
//! of MobileNet V1+V2 (α = 0.25, resolution 32) on a 4×4 NP-CGRA, fast
//! tier, every other knob at its default. An operation is one request.

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use npcgra::net::{NetClient, NetConfig, NetServer, NetStats};
use npcgra::serve::{BackendTier, JournalConfig, ModelId, Priority, ServeConfig, Server, StatsSnapshot};
use npcgra::{CgraSpec, ConvLayer, Tensor};

use crate::common::{bench_metrics, scratch_dir, workers, Outcome, RunArgs, Setups};
use crate::drive::{closed_loop, open_loop, pingpong, wire_closed_loop, Pool};
use crate::probes::{cache_probe, codec_probe, exec_estimates, journal_probe, sim_probes};
use crate::record::{
    measured_plan, median_rate, of_kind, served, span_p50, traced_plan, PhaseKind, PhaseLog, Recorder, Sample, REQUEST_SLO_NS,
};
use crate::rng::{poisson_schedule, Rng};
use crate::stats::{median, nearest_rank, Summary};
use crate::traffic::{served_endpoints, Endpoint, Req, Source, STREAM_ARRIVALS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Saturate,
    Keyed,
    Open,
    WireSaturate,
    WirePingpong,
}

/// Requests in flight in the saturating closed loops.
const WINDOW: usize = 16;
/// Arrival rate of the open loop: about a third of what `serve_saturate`
/// sustains on the box the benchmark was defined on.
const OPEN_RATE_HZ: f64 = 1500.0;

pub fn spec() -> CgraSpec {
    CgraSpec::np_cgra(4, 4)
}

impl Pool for [Endpoint] {
    fn input(&self, req: &Req) -> &Tensor {
        &self[req.draw.endpoint].inputs[req.draw.input]
    }

    fn golden(&self, req: &Req) -> &Tensor {
        &self[req.draw.endpoint].golden[req.draw.input]
    }
}

enum Conn {
    Raw(TcpStream),
    Client(Box<NetClient>),
}

/// The program under test, set up: the server with every endpoint
/// registered, and for the wire workloads the front-end bound and one
/// connection open.
struct Stack {
    server: Arc<Server>,
    models: Vec<ModelId>,
    net: Option<NetServer>,
    conn: Option<Conn>,
}

impl Stack {
    fn start(kind: Kind, eps: &[Endpoint], journal_dir: Option<PathBuf>) -> Stack {
        let config = ServeConfig::for_spec(&spec())
            .with_workers(workers())
            .with_backend_tier(BackendTier::Fast);
        let server = match journal_dir {
            None => Server::start(config),
            Some(dir) => {
                Server::start_with_journal(config, JournalConfig::new(dir.join("admission.journal")))
                    .expect("a fresh journal opens")
                    .0
            }
        };
        let models = eps
            .iter()
            .map(|e| {
                server
                    .register(&e.name, e.layer.clone(), e.weights.clone())
                    .expect("every endpoint maps onto the machine")
            })
            .collect();
        let server = Arc::new(server);
        let mut stack = Stack {
            server,
            models,
            net: None,
            conn: None,
        };
        if matches!(kind, Kind::WireSaturate | Kind::WirePingpong) {
            let net = NetServer::start(Arc::clone(&stack.server), NetConfig::default()).expect("loopback binds");
            let addr = net.local_addr();
            stack.conn = Some(if kind == Kind::WireSaturate {
                let stream = TcpStream::connect(addr).expect("loopback connects");
                stream.set_nodelay(true).expect("TCP_NODELAY");
                Conn::Raw(stream)
            } else {
                Conn::Client(Box::new(NetClient::connect(addr, b"").expect("loopback connects")))
            });
            stack.net = Some(net);
        }
        stack
    }

    fn stop(mut self) -> (StatsSnapshot, Option<NetStats>) {
        drop(self.conn.take());
        let net_stats = self.net.take().map(NetServer::shutdown);
        let server = Arc::try_unwrap(self.server).unwrap_or_else(|_| panic!("the front-end still holds the server"));
        (server.shutdown(), net_stats)
    }

    /// Drive the workload's own traffic over `plan`.
    fn drive(&mut self, kind: Kind, plan: &[(PhaseKind, f64)], eps: &[Endpoint], seed: u64) -> Vec<PhaseLog> {
        let Stack {
            server, models, conn, ..
        } = self;
        let (server, models): (&Server, &[ModelId]) = (server, models);
        let mut rec = Recorder::start(plan, REQUEST_SLO_NS, || cycles(server));
        let mut source = if kind == Kind::Keyed {
            Source::keyed(seed, eps.len())
        } else {
            Source::new(seed, eps.len())
        };
        match (kind, conn.as_mut()) {
            (Kind::Saturate, _) => closed_loop(&mut rec, eps, &mut source, WINDOW, |req, input| {
                server.submit(models[req.draw.endpoint], input)
            }),
            (Kind::Keyed, _) => closed_loop(&mut rec, eps, &mut source, WINDOW, |req, input| {
                server.submit_idem(models[req.draw.endpoint], input, None, Priority::Interactive, req.key)
            }),
            (Kind::Open, _) => {
                let secs: f64 = plan.iter().map(|p| p.1).sum();
                let schedule = poisson_schedule(&mut Rng::new(seed, STREAM_ARRIVALS), OPEN_RATE_HZ, secs);
                open_loop(&mut rec, eps, &mut source, &schedule, |req, input| {
                    server.submit_with_priority(models[req.draw.endpoint], input, None, req.draw.class)
                });
            }
            (Kind::WireSaturate, Some(Conn::Raw(stream))) => {
                wire_closed_loop(&mut rec, eps, &mut source, WINDOW, stream).expect("the loopback connection holds");
            }
            (Kind::WirePingpong, Some(Conn::Client(client))) => pingpong(&mut rec, eps, &mut source, client),
            _ => unreachable!("wire workloads are set up with their connection"),
        }
        rec.finish()
    }

    /// The reference segment of a traced run: plain unkeyed in-process
    /// submissions to the same server, `window` in flight.
    fn drive_reference(&self, plan: &[(PhaseKind, f64)], eps: &[Endpoint], seed: u64, window: usize) -> Vec<PhaseLog> {
        let mut rec = Recorder::start(plan, REQUEST_SLO_NS, || cycles(&self.server));
        let mut source = Source::new(seed ^ 0x5EED, eps.len());
        closed_loop(&mut rec, eps, &mut source, window, |req, input| {
            self.server.submit(self.models[req.draw.endpoint], input)
        });
        rec.finish()
    }
}

/// Every simulated cycle the server has charged so far, either tier.
fn cycles(server: &Server) -> u64 {
    server.stats().cycles_charged.iter().sum()
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn p99(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else {
        nearest_rank(&v, 99.0)
    }
}

/// The V1 part of the served set, in order: a whole model's chain.
fn v1_chain(eps: &[Endpoint]) -> Vec<ConvLayer> {
    eps.iter().take(26).map(|e| e.layer.clone()).collect()
}

pub fn run(kind: Kind, args: RunArgs) -> Outcome {
    let pool = served_endpoints(args.seed);
    let eps = pool.value.as_slice();
    let mut generation = 0;
    let mut setup = || {
        generation += 1;
        let journal = (kind == Kind::Keyed).then(|| scratch_dir(&format!("journal-{generation}")));
        Stack::start(kind, eps, journal)
    };
    let mut setups = Setups::default();
    let mut stack = setups.burst(args.seconds, &mut setup, |s| drop(s.stop()));

    if !args.trace {
        let logs = stack.drive(kind, &measured_plan(args.seconds), eps, args.seed);
        stack.stop();
        drop(setups.burst(args.seconds, &mut setup, |s| drop(s.stop())).stop());
        return Outcome::end_to_end(served(&logs), setups.summary());
    }

    let est = exec_estimates(eps, &spec());
    let logs = stack.drive(kind, &traced_plan(args.seconds), eps, args.seed);
    let after_main = stack.server.stats();
    let mut reference_plan = vec![(PhaseKind::Warmup, args.seconds / 16.0)];
    reference_plan.extend([(PhaseKind::Traced, args.seconds / 32.0); 4]);
    let reference = match kind {
        Kind::Keyed | Kind::WireSaturate => stack.drive_reference(&reference_plan, eps, args.seed, WINDOW),
        Kind::WirePingpong => stack.drive_reference(&reference_plan, eps, args.seed, 1),
        Kind::Saturate | Kind::Open => Vec::new(),
    };
    let (final_stats, net_stats) = stack.stop();

    let totals = served(&logs);
    let traced = of_kind(&logs, PhaseKind::Traced);
    let spans: Vec<Sample> = traced.iter().flat_map(|l| l.spans.iter().copied()).collect();
    let ok_spans = || spans.iter().filter(|s| s.ok);
    let est_of = |s: &Sample| est[s.endpoint as usize];
    let main_rate = median_rate(&logs.iter().filter(|l| l.kind != PhaseKind::Warmup).collect::<Vec<_>>());
    let reference_rate = median_rate(&of_kind(&reference, PhaseKind::Traced));
    let reference_spans: Vec<Sample> = reference.iter().flat_map(|l| l.spans.iter().copied()).collect();
    let ratio_to_reference = if reference_rate > 0.0 {
        main_rate / reference_rate
    } else {
        0.0
    };
    let mean_est_ns = mean(ok_spans().map(est_of));
    let traced_ops: u64 = traced.iter().map(|l| l.correct).sum();
    let one = |v: f64| Summary::one(v, spans.len());

    let mut m = bench_metrics(&logs, pool.build_s, totals.mismatches);
    // The plain `submit` call: the reference segment's where the workload
    // itself submits keyed or by wire, else the workload's own.
    let plain = if reference_spans.is_empty() {
        &spans
    } else {
        &reference_spans
    };
    let plain_submit_us = span_p50(plain, 1e3, |s| s.call_ns);
    m.extend([
        ("serve.submit_us_p50", one(plain_submit_us)),
        ("serve.core_latency_ms_p50", one(span_p50(&spans, 1e6, |s| s.core_ns))),
        (
            "serve.exec_est_ms_p50",
            one(median(&ok_spans().map(est_of).collect::<Vec<_>>()) / 1e6),
        ),
        (
            "serve.overhead_ms_p50",
            one(median(
                &ok_spans()
                    .map(|s| (s.core_ns as f64 - est_of(s)).max(0.0))
                    .collect::<Vec<_>>(),
            ) / 1e6),
        ),
        (
            "serve.exec_share",
            one(mean_est_ns / 1e9 * median_rate(&traced) / workers() as f64),
        ),
        (
            "serve.batch_mean",
            one(traced_ops as f64 / ok_spans().map(|s| 1.0 / f64::from(s.batch.max(1))).sum::<f64>()),
        ),
        (
            "serve.worker_busy_share",
            one(mean(after_main.worker_utilization.iter().copied())),
        ),
        (
            "serve.served_over_direct_ratio",
            one(median_rate(&traced) / (1e9 / mean_est_ns)),
        ),
        (
            "serve.sim_cycles_per_op",
            one(traced.iter().map(|l| l.cycles).sum::<u64>() as f64 / traced_ops as f64),
        ),
        ("serve.max_queue_depth", one(after_main.max_queue_depth as f64)),
        ("serve.retries", one(final_stats.retries as f64)),
        ("serve.rejected_queue_full", one(final_stats.rejected_queue_full as f64)),
        ("serve.cross_checks", one(final_stats.cross_checks as f64)),
        ("serve.cache_hits", one(final_stats.cache_hits as f64)),
        ("serve.cache_misses", one(final_stats.cache_misses as f64)),
        ("serve.duplicate_executions", one(final_stats.duplicate_executions as f64)),
    ]);
    m.extend(cache_probe(eps, &spec()));

    if kind == Kind::Keyed {
        let ops = after_main.completed.max(1) as f64;
        let idem_us = span_p50(&spans, 1e3, |s| s.call_ns);
        m.extend([
            ("serve.submit_idem_us_p50", one(idem_us)),
            ("serve.journal_admit_cost_us", one(idem_us - plain_submit_us)),
            ("serve.journal_appends_per_op", one(after_main.journal_appends as f64 / ops)),
            ("serve.journal_fsyncs_per_op", one(after_main.journal_fsyncs as f64 / ops)),
            ("serve.journal_bytes_per_op", one(after_main.journal_bytes as f64 / ops)),
            ("serve.dedup_hits", one(after_main.dedup_hits as f64)),
            ("serve.keyed_over_unkeyed_ratio", one(ratio_to_reference)),
        ]);
        m.extend(journal_probe(eps));
    }
    if let Some(net) = net_stats {
        let replies = net.replies_tx.max(1) as f64;
        let sheds = net.rejected_malformed
            + net.rejected_bad_token
            + net.rejected_rate_limited
            + net.rejected_quota
            + net.rejected_backpressure
            + net.rejected_draining
            + net.rejected_serve;
        m.extend([
            ("net.wire_overhead_ms_p50", one(span_p50(&spans, 1e6, Sample::wire_ns))),
            ("net.bytes_rx_per_op", one(net.bytes_rx as f64 / replies)),
            ("net.bytes_tx_per_op", one(net.bytes_tx as f64 / replies)),
            ("net.wire_over_inproc_ratio", one(ratio_to_reference)),
            ("net.sheds", one(sheds as f64)),
        ]);
        m.extend(codec_probe(eps));
    }
    m.push(("bench.lat_p99_ms", totals.lat_p99_ms));
    if kind == Kind::Open {
        m.push((
            "bench.gen_late_p99_ms",
            one(p99(spans.iter().map(|s| s.late_ns as f64 / 1e6))),
        ));
    }
    m.extend(sim_probes(eps, &spec(), &v1_chain(eps), 2, args.seconds / 5.0));

    Outcome {
        attempted: totals.attempted,
        failed: totals.failed,
        wrong: totals.mismatches,
        metrics: m,
        spans: spans.iter().map(|s| (*s, est_of(s))).collect(),
    }
}
