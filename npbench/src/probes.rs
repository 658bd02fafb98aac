//! Isolated probes: each layer of the program timed alone, from outside,
//! on the inputs of the workload that asked. They run after the traced
//! repetitions, when the program under test is idle.

use std::hint::black_box;
use std::time::Instant;

use npcgra::net::frame::{encode_frame, FrameDecoder};
use npcgra::net::{WireFrame, WireReply, WireRequest, WireResponse};
use npcgra::nn::reference;
use npcgra::serve::journal::{encode_record, replay_bytes, Record, JOURNAL_MAGIC};
use npcgra::serve::{BackendTier, IntegrityMode, ProgramCache};
use npcgra::sim::{backend_for, time_layer, CompiledModel, ExecutionBackend, MappingKind, ResolvedMapping};
use npcgra::{CgraSpec, CompiledLayer, ConvLayer, LayerReport};

use crate::stats::{median, Summary};
use crate::traffic::Endpoint;

pub type Metrics = Vec<(&'static str, Summary)>;

fn one(value: f64) -> Summary {
    Summary::one(value, 1)
}

/// Run `f` up to `max` times, at least once, stopping early once `budget_s`
/// is spent; the probe's figure is the median of what came back.
fn passes<T>(budget_s: f64, max: usize, mut f: impl FnMut() -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = vec![f()];
    while out.len() < max && t0.elapsed().as_secs_f64() < budget_s {
        out.push(f());
    }
    out
}

pub fn compile_set(eps: &[Endpoint], spec: &CgraSpec) -> Vec<CompiledLayer> {
    eps.iter()
        .map(|e| CompiledLayer::compile(&e.layer, spec, MappingKind::Auto).expect("the benchmark's layers map onto its machines"))
        .collect()
}

/// One pass of a layer set over one backend: host ns and report per layer,
/// and how many outputs differed from the golden ones.
pub struct SetPass {
    pub ns: Vec<u64>,
    pub reports: Vec<LayerReport>,
    /// Per layer: the run failed or its output differed from the golden one.
    pub bits_wrong: Vec<bool>,
}

impl SetPass {
    pub fn cycles(&self) -> u64 {
        self.reports.iter().map(|r| r.cycles).sum()
    }

    pub fn bit_mismatches(&self) -> u64 {
        self.bits_wrong.iter().filter(|&&w| w).count() as u64
    }
}

pub fn run_set(backend: &mut dyn ExecutionBackend, compiled: &[CompiledLayer], eps: &[Endpoint]) -> SetPass {
    let mut pass = SetPass {
        ns: Vec::with_capacity(eps.len()),
        reports: Vec::with_capacity(eps.len()),
        bits_wrong: Vec::with_capacity(eps.len()),
    };
    for (program, ep) in compiled.iter().zip(eps) {
        let t0 = Instant::now();
        let result = backend.run_layer(program, black_box(&ep.inputs[0]), &ep.weights);
        pass.ns.push(t0.elapsed().as_nanos() as u64);
        match result {
            Ok((ofm, report)) => {
                pass.bits_wrong.push(ofm != ep.golden[0]);
                pass.reports.push(report);
            }
            Err(_) => {
                pass.bits_wrong.push(true);
                pass.reports.push(program.timing_report());
            }
        }
    }
    pass
}

/// Median over passes of the host ns spent on the layers `pick` selects.
fn median_ns(runs: &[SetPass], pick: impl Fn(usize) -> bool) -> f64 {
    let sums: Vec<f64> = runs
        .iter()
        .map(|p| {
            p.ns.iter()
                .enumerate()
                .filter(|(i, _)| pick(*i))
                .map(|(_, &ns)| ns as f64)
                .sum()
        })
        .collect();
    median(&sums)
}

const KINDS: [(ResolvedMapping, &str, &str); 3] = [
    (
        ResolvedMapping::Pwc,
        "sim.cycle_ns_per_sim_cycle.pwc",
        "sim.fast_ns_per_word.pwc",
    ),
    (
        ResolvedMapping::DwcS1,
        "sim.cycle_ns_per_sim_cycle.dwc_s1",
        "sim.fast_ns_per_word.dwc_s1",
    ),
    (
        ResolvedMapping::DwcGeneral,
        "sim.cycle_ns_per_sim_cycle.dwc_general",
        "sim.fast_ns_per_word.dwc_general",
    ),
];

/// The paper's Table 5 latencies (ms, "our mapping" column) for
/// `models::table5_layers()` on its 4×4 machine.
const PAPER_TABLE5_MS: [f64; 3] = [3.72, 0.92, 0.81];

/// Largest relative error, in percent, of the simulated Table 5 latencies
/// against the paper's. Simulated time: it moves only if the model does.
pub fn paper_table5_err_pct_max() -> f64 {
    let mut spec = CgraSpec::np_cgra(4, 4);
    // Table 5 keeps the Table 4 memory budget on the smaller array.
    spec.hmem_bytes = 39 * 1024;
    spec.vmem_bytes = 39 * 1024;
    let (pw, dw1, dw2) = npcgra::nn::models::table5_layers();
    [pw, dw1, dw2]
        .iter()
        .zip(PAPER_TABLE5_MS)
        .map(|(layer, paper)| {
            let ours = time_layer(layer, &spec, MappingKind::Auto).expect("Table 5 layers map").ms();
            (ours - paper).abs() / paper * 100.0
        })
        .fold(0.0, f64::max)
}

/// `nn` and `sim` alone on `eps` (first pooled input each) and on `chain`
/// as a whole model of `stages` stages.
pub fn sim_probes(eps: &[Endpoint], spec: &CgraSpec, chain: &[ConvLayer], stages: usize, budget_s: f64) -> Metrics {
    let share = budget_s / 6.0;
    let words: Vec<u64> = eps.iter().map(Endpoint::out_words).collect();
    let total_words: f64 = words.iter().sum::<u64>() as f64;

    let golden_ns = median(&passes(share, 5, || {
        let t0 = Instant::now();
        for ep in eps {
            black_box(reference::run_layer(&ep.layer, black_box(&ep.inputs[0]), &ep.weights).expect("pooled tensors fit"));
        }
        t0.elapsed().as_nanos() as f64
    }));

    let compile_ns = median(&passes(share / 2.0, 5, || {
        let t0 = Instant::now();
        black_box(compile_set(eps, spec));
        t0.elapsed().as_nanos() as f64
    }));
    let model_ns = median(&passes(share / 2.0, 5, || {
        let t0 = Instant::now();
        black_box(CompiledModel::compile("probe", chain, spec, stages).expect("the chain compiles"));
        t0.elapsed().as_nanos() as f64
    }));

    let compiled = compile_set(eps, spec);
    let tier_runs = |tier: BackendTier, mode: IntegrityMode| {
        let mut backend = backend_for(tier, spec);
        backend.set_integrity_mode(mode);
        passes(share, 5, || run_set(backend.as_mut(), &compiled, eps))
    };
    let cycle = tier_runs(BackendTier::CycleAccurate, IntegrityMode::Verify);
    let cycle_off = tier_runs(BackendTier::CycleAccurate, IntegrityMode::Off);
    let fast = tier_runs(BackendTier::Fast, IntegrityMode::Verify);
    let fast_off = tier_runs(BackendTier::Fast, IntegrityMode::Off);

    let all = |_: usize| true;
    let (cycle_ns, fast_ns) = (median_ns(&cycle, all), median_ns(&fast, all));
    let c0 = &cycle[0];
    let sim_cycles = c0.cycles() as f64;
    let closed: Vec<LayerReport> = compiled.iter().map(CompiledLayer::timing_report).collect();
    let every_pass = || cycle.iter().chain(&cycle_off).chain(&fast).chain(&fast_off);

    let mut m: Metrics = vec![
        ("nn.golden_ns_per_word", one(golden_ns / total_words)),
        ("sim.compile_ms_per_layer", one(compile_ns / 1e6 / eps.len() as f64)),
        ("sim.compile_model_ms", one(model_ns / 1e6)),
        ("sim.cycle_ns_per_sim_cycle", one(cycle_ns / sim_cycles)),
        (
            "sim.cycle_ns_per_pe_cycle",
            one(cycle_ns / (sim_cycles * spec.num_pes() as f64)),
        ),
        ("sim.cycles_total", one(sim_cycles)),
        (
            "sim.cycle_compute_cycles",
            one(c0.reports.iter().map(|r| r.compute_cycles).sum::<u64>() as f64),
        ),
        (
            "sim.cycle_dma_cycles",
            one(c0.reports.iter().map(|r| r.dma_cycles).sum::<u64>() as f64),
        ),
        (
            "sim.cycle_pe_utilization",
            one(c0.reports.iter().map(|r| r.macs).sum::<u64>() as f64 / (sim_cycles * spec.num_pes() as f64)),
        ),
        ("sim.fast_ns_per_word", one(fast_ns / total_words)),
        ("sim.fast_over_golden_ratio", one(fast_ns / golden_ns)),
        ("sim.integrity_share.cycle", one(1.0 - median_ns(&cycle_off, all) / cycle_ns)),
        ("sim.integrity_share.fast", one(1.0 - median_ns(&fast_off, all) / fast_ns)),
        (
            "sim.integrity_checked",
            one((c0.reports.iter().chain(&fast[0].reports))
                .map(|r| r.integrity_checked)
                .sum::<u64>() as f64),
        ),
        (
            "sim.integrity_failed",
            one(every_pass().flat_map(|p| &p.reports).map(|r| r.integrity_failed).sum::<u64>() as f64),
        ),
        (
            "sim.tier_cycle_mismatches",
            one(c0
                .reports
                .iter()
                .zip(&fast[0].reports)
                .filter(|(c, f)| c.cycles != f.cycles)
                .count() as f64),
        ),
        (
            "sim.closed_form_mismatches",
            one(every_pass()
                .map(|p| p.reports.iter().zip(&closed).filter(|(r, c)| r.cycles != c.cycles).count())
                .sum::<usize>() as f64),
        ),
        (
            "sim.golden_bit_mismatches",
            one(every_pass().map(SetPass::bit_mismatches).sum::<u64>() as f64),
        ),
        ("sim.paper_table5_err_pct_max", one(paper_table5_err_pct_max())),
    ];
    for (kind, cycle_name, fast_name) in KINDS {
        let of_kind = |i: usize| compiled[i].mapping() == kind;
        let kind_cycles: u64 = (0..eps.len()).filter(|&i| of_kind(i)).map(|i| c0.reports[i].cycles).sum();
        let kind_words: u64 = (0..eps.len()).filter(|&i| of_kind(i)).map(|i| words[i]).sum();
        if kind_cycles > 0 {
            m.push((cycle_name, one(median_ns(&cycle, of_kind) / kind_cycles as f64)));
            m.push((fast_name, one(median_ns(&fast, of_kind) / kind_words as f64)));
        }
    }
    m
}

/// Solo fast-tier time of each endpoint, ns (median of five runs, ABFT
/// verification on as the server runs it): what `sim.exec_est` spans and
/// `serve.exec_est_ms_p50` are built from.
pub fn exec_estimates(eps: &[Endpoint], spec: &CgraSpec) -> Vec<f64> {
    let compiled = compile_set(eps, spec);
    let mut backend = backend_for(BackendTier::Fast, spec);
    backend.set_integrity_mode(IntegrityMode::Verify);
    let runs: Vec<SetPass> = (0..5).map(|_| run_set(backend.as_mut(), &compiled, eps)).collect();
    (0..eps.len())
        .map(|i| median(&runs.iter().map(|p| p.ns[i] as f64).collect::<Vec<_>>()))
        .collect()
}

/// The program cache alone: ns per hit once every program is resident.
pub fn cache_probe(eps: &[Endpoint], spec: &CgraSpec) -> Metrics {
    let cache = ProgramCache::with_capacity(512);
    let fetch_all = || {
        for ep in eps {
            black_box(cache.get_or_compile(&ep.layer, spec, MappingKind::Auto).expect("compiles"));
        }
    };
    fetch_all();
    let hit_ns = median(&passes(0.05, 20, || {
        let t0 = Instant::now();
        fetch_all();
        t0.elapsed().as_nanos() as f64 / eps.len() as f64
    }));
    vec![("serve.cache_hit_ns", one(hit_ns))]
}

fn shape16(t: &npcgra::Tensor) -> (u16, u16, u16) {
    let (c, h, w) = t.shape();
    (c as u16, h as u16, w as u16)
}

/// The journal codec alone: one Admit and one Ack record per endpoint,
/// encoded, then the whole image replayed.
pub fn journal_probe(eps: &[Endpoint]) -> Metrics {
    let records: Vec<Record> = eps
        .iter()
        .enumerate()
        .flat_map(|(i, ep)| {
            let id = i as u64 + 1;
            [
                Record::Admit {
                    request_id: id,
                    idem_key: id,
                    model: i as u32,
                    class: 0,
                    deadline_ms: 0,
                    shape: shape16(&ep.inputs[0]),
                    words: ep.inputs[0].as_slice().to_vec(),
                },
                Record::Ack {
                    request_id: id,
                    idem_key: id,
                    outcome: Some((shape16(&ep.golden[0]), ep.golden[0].as_slice().to_vec())),
                },
            ]
        })
        .collect();
    let mut image = JOURNAL_MAGIC.to_vec();
    let encode_ns = median(&passes(0.05, 20, || {
        image.truncate(JOURNAL_MAGIC.len());
        let t0 = Instant::now();
        for r in &records {
            image.extend_from_slice(&encode_record(black_box(r)));
        }
        t0.elapsed().as_nanos() as f64 / records.len() as f64
    }));
    let replay_s = median(&passes(0.05, 20, || {
        let t0 = Instant::now();
        let replayed = replay_bytes(black_box(&image)).expect("the image starts with the magic");
        assert_eq!(replayed.records.len(), records.len(), "the journal image replays whole");
        t0.elapsed().as_secs_f64()
    }));
    vec![
        ("serve.journal_encode_ns", one(encode_ns)),
        ("serve.journal_replay_mb_per_s", one(image.len() as f64 / 1e6 / replay_s)),
    ]
}

/// The wire codec alone: one Request and one Reply frame per endpoint,
/// encoded, then the byte stream decoded.
pub fn codec_probe(eps: &[Endpoint]) -> Metrics {
    let frames: Vec<WireFrame> = eps
        .iter()
        .enumerate()
        .flat_map(|(i, ep)| {
            [
                WireFrame::Request(WireRequest {
                    tag: i as u64,
                    idem: 0,
                    token: Vec::new(),
                    class: 0,
                    deadline_ms: 0,
                    model: i as u32,
                    shape: shape16(&ep.inputs[0]),
                    words: ep.inputs[0].as_slice().to_vec(),
                }),
                WireFrame::Reply(WireReply {
                    tag: i as u64,
                    request_id: i as u64 + 1,
                    result: Ok(WireResponse {
                        batch: 1,
                        worker: 0,
                        latency_us: 1,
                        shape: shape16(&ep.golden[0]),
                        words: ep.golden[0].as_slice().to_vec(),
                    }),
                }),
            ]
        })
        .collect();
    let mut bytes = Vec::new();
    let encode_s = median(&passes(0.05, 20, || {
        bytes.clear();
        let t0 = Instant::now();
        for f in &frames {
            encode_frame(black_box(f), &mut bytes);
        }
        t0.elapsed().as_secs_f64()
    }));
    let decode_s = median(&passes(0.05, 20, || {
        let mut decoder = FrameDecoder::new(1 << 24);
        let t0 = Instant::now();
        let mut decoded = 0;
        // Fed in socket-read-sized pieces, as the reactor and clients do.
        for chunk in bytes.chunks(1 << 16) {
            decoder.push(chunk);
            while let Some(frame) = decoder.next().expect("the codec decodes what it encoded") {
                black_box(frame);
                decoded += 1;
            }
        }
        assert_eq!(decoded, frames.len());
        t0.elapsed().as_secs_f64()
    }));
    let n = frames.len() as f64;
    vec![
        ("net.encode_ns_per_frame", one(encode_s * 1e9 / n)),
        ("net.decode_ns_per_frame", one(decode_s * 1e9 / n)),
        ("net.frame_mb_per_s", one(bytes.len() as f64 / 1e6 / (encode_s + decode_s))),
    ]
}
