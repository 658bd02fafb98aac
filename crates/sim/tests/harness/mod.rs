//! One differential oracle for the simulator.
//!
//! A case is a layer on a machine spec under a mapping request, a burst
//! size (`batch` requests concatenated into one program, as `npcgra-serve`'s
//! batcher builds it), an integrity mode and a seed fixing its tensors.
//! Cases come from fixed sets — the benchmark's 77 served layers × bursts
//! 1–4 and 29 direct layers, pinned shapes for every mapping, fused
//! activations and §5.4 channel batching — and from seeded draws over every
//! `np_cgra(r, c)`, `r, c ∈ 1..=8`, each also with `vmem_bytes = 0`.
//!
//! Every case meets every oracle that applies to it: output bits against
//! `nn::reference` on both tiers; cycles, compute, DMA and MACs against
//! `timing_report()`; the surface against `materialize`, covering every OFM
//! word once; DWC-S1 never slower than DWC-general where Table 3 says so;
//! on sampled blocks, the encoded-ISA run within the context budget and a
//! trace with ≤ 1 word per bus lane and no bank on two lanes per cycle; and
//! for standard convs, `functional_ofm` and the im2col path.
//!
//! A mapper rejection is a counted skip, and each slice of the drawn cases
//! must execute its mappings in every spec class it spans (the coverage
//! floor). Cases are deterministic: a failure names the case in full and
//! the oracle, and re-running the test reproduces it.
//!
//! This module holds the cases and the oracles; the test files only pick a
//! slice and run it:
//!
//! | test file                           | slice                                               |
//! |-------------------------------------|-----------------------------------------------------|
//! | `oracle.rs`                         | the served and direct sets; the liveness rows       |
//! | `block_surface.rs`                  | the pinned shapes on both benchmark machines        |
//! | `tier_parity.rs`                    | drawn cases on undivided memory; standard convs     |
//! | `tests/cross_mapping_properties.rs` | drawn cases on divided memory, one test per mapping |
//! | `tests/activation_fusion.rs`        | the fused-activation rows                           |
//! | `tests/channel_batching.rs`         | the §5.4 channel-batching rows                      |

// Each test binary runs a few slices, so some helpers go unused in each.
#![allow(dead_code)]

use std::collections::HashMap;
use std::fmt;

use npcgra_arch::grf::GRF_WORDS;
use npcgra_arch::CgraSpec;
use npcgra_kernels::dwc_general::DwcGeneralLayerMap;
use npcgra_kernels::{BlockProgram, ConfigImage};
use npcgra_nn::{models, reference, Activation, ConvKind, ConvLayer, Tensor};
use npcgra_sim::{
    backend_for, functional_ofm, run_standard_via_im2col, BackendTier, CancelToken, CompiledLayer, FaultDims, FaultPlan,
    FaultSite, GrayRates, IntegrityMode, Machine, MappingKind, ResolvedMapping as R, Run, SimCause, TemporalFault,
};
use proptest::test_runner::TestRng;

pub const MODES: [IntegrityMode; 3] = [IntegrityMode::Off, IntegrityMode::Verify, IntegrityMode::VerifyAndRecompute];
const DWC_KINDS: [MappingKind; 3] = [MappingKind::Auto, MappingKind::MatmulDwc, MappingKind::BatchedDwcS1];
pub const MAPPINGS: [R; 5] = [R::Pwc, R::DwcS1, R::DwcGeneral, R::MatmulDwc, R::BatchedDwcS1];
/// The spec classes: the two benchmark machines, then the drawn shapes
/// on divided memory, then any shape on undivided memory.
pub const CLASSES: [&str; 6] = ["4x4", "Table 4", "1xN or Nx1", "non-square", "square", "vmem_bytes = 0"];
/// The classes the drawn cases on divided memory span.
pub const DIVIDED: &[&str] = &[CLASSES[0], CLASSES[1], CLASSES[2], CLASSES[3], CLASSES[4]];
/// The class the drawn cases on undivided memory span.
pub const UNDIVIDED: &[&str] = &[CLASSES[5]];
/// The classes the pinned rows span.
pub const MACHINES: &[&str] = &[CLASSES[0], CLASSES[1]];

/// Fail with the case in full and the oracle that broke.
macro_rules! oracle {
    ($cond:expr, $case:expr, $($what:tt)+) => {
        assert!($cond, "{} — {}", $case, format_args!($($what)+))
    };
}

#[derive(Clone)]
pub struct Case {
    pub set: &'static str,
    pub layer: ConvLayer,
    pub spec: CgraSpec,
    pub kind: MappingKind,
    pub batch: usize,
    pub mode: IntegrityMode,
    pub seed: u64,
    ifm: Tensor,
    weights: Tensor,
}

impl Case {
    /// `batch` requests for `layer` (inputs seeded `seed..seed + batch`,
    /// weights `seed ^ 0x5EED`) as one program: depthwise concatenates
    /// along channels with the kernels tiled, pointwise along rows with the
    /// weights shared.
    fn new(set: &'static str, layer: &ConvLayer, spec: CgraSpec, kind: MappingKind, batch: usize, seed: u64) -> Case {
        let (c, h, w, k) = (layer.in_channels(), layer.in_h(), layer.in_w(), layer.k());
        let mut solo: Vec<Tensor> = (0..batch as u64).map(|i| Tensor::random(c, h, w, seed + i)).collect();
        let weights = layer.random_weights(seed ^ 0x5EED);
        let name = format!("{}.batch{batch}", layer.name());
        let (layer, ifm, weights) = match layer.kind() {
            _ if batch == 1 => (layer.clone(), solo.remove(0), weights),
            ConvKind::Depthwise => (
                ConvLayer::depthwise(&name, c * batch, h, w, k, layer.s(), layer.pad()).with_activation(layer.activation()),
                Tensor::from_fn(c * batch, h, w, |ch, y, x| solo[ch / c].get(ch % c, y, x)),
                Tensor::from_fn(c * batch, k, k, |ch, y, x| weights.get(ch % c, y, x)),
            ),
            ConvKind::Pointwise => (
                ConvLayer::pointwise(&name, c, layer.out_channels(), h * batch, w).with_activation(layer.activation()),
                Tensor::from_fn(c, h * batch, w, |ch, y, x| solo[y / h].get(ch, y % h, x)),
                weights,
            ),
            ConvKind::Standard => unreachable!("the batcher concatenates DSC layers only"),
        };
        let mode = IntegrityMode::Off;
        Case {
            set,
            layer,
            spec,
            kind,
            batch,
            mode,
            seed,
            ifm,
            weights,
        }
    }

    fn in_mode(self, mode: IntegrityMode) -> Case {
        Case { mode, ..self }
    }

    fn in_every_mode(self) -> [Case; 3] {
        MODES.map(|mode| self.clone().in_mode(mode))
    }
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (set, layer, spec) = (self.set, &self.layer, &self.spec);
        let (kind, batch, mode, seed) = (self.kind, self.batch, self.mode, self.seed);
        let (groups, act, rows, cols, vmem) = (layer.groups(), layer.activation(), spec.rows, spec.cols, spec.vmem_bytes);
        let on = format!("np_cgra({rows}, {cols}) vmem_bytes={vmem}");
        write!(
            f,
            "[{set}] {layer} groups={groups} {act} on {on} {kind:?} batch={batch} {mode:?} seed={seed}"
        )
    }
}

fn class(spec: &CgraSpec) -> &'static str {
    match (spec.rows, spec.cols) {
        _ if spec.vmem_bytes == 0 => CLASSES[5],
        (4, 4) => CLASSES[0],
        (8, 8) => CLASSES[1],
        (1, _) | (_, 1) => CLASSES[2],
        (r, c) if r != c => CLASSES[3],
        _ => CLASSES[4],
    }
}

/// What a set of cases did: executions per (spec class, mapping), and how
/// many the mapper rejected.
#[derive(Default)]
pub struct Tally {
    executed: HashMap<(&'static str, R), usize>,
    skips: usize,
}

impl Tally {
    /// The coverage floor: every one of `mappings` executed on every one of
    /// `classes`.
    pub fn assert_floor(&self, classes: &[&str], mappings: &[R]) {
        for class in classes {
            for mapping in mappings {
                let (ran, skips) = (self.executed.contains_key(&(*class, *mapping)), self.skips);
                assert!(
                    ran,
                    "coverage floor: no {mapping:?} case ran on a {class} spec ({skips} skips)"
                );
            }
        }
    }
}

/// A case's program, or the mapper's rejection of it.
type Compiled = Result<CompiledLayer, String>;

/// Run every case through [`check`]; the cycle tier and the surface too
/// when `cycle`, and the encoded-ISA and trace oracles on as many leading
/// blocks as `encoded` picks for the case. A case shares its predecessor's
/// reference when only the mapping, spec or mode differs, and its compiled
/// program when only the mode does. The one rejection the mappings
/// document is a skip — channel batching needs a stride-1 kernel that fits
/// the GRF — and any other fails the case.
pub fn run_set(cases: &[Case], cycle: bool, encoded: impl Fn(&Case) -> usize) -> Tally {
    let mut tally = Tally::default();
    let (mut golden, mut compiled) = (None, None);
    for (i, case) in cases.iter().enumerate() {
        let prev = i.checked_sub(1).map(|j| &cases[j]);
        let same_inputs = prev.is_some_and(|p| (&p.layer, p.seed, p.batch) == (&case.layer, case.seed, case.batch));
        if !same_inputs {
            golden = Some(reference::run_layer(&case.layer, &case.ifm, &case.weights).expect("the reference runs every layer"));
        }
        if !(same_inputs && prev.is_some_and(|p| (p.spec, p.kind) == (case.spec, case.kind))) {
            compiled = Some(CompiledLayer::compile(&case.layer, &case.spec, case.kind).map_err(|e| e.to_string()));
        }
        let (golden, compiled) = (golden.as_ref().expect("set above"), compiled.as_ref().expect("set above"));
        match check(case, golden, compiled, cycle, encoded(case)) {
            Ok(Some(mapping)) => *tally.executed.entry((class(&case.spec), mapping)).or_default() += 1,
            Ok(None) => {}
            Err(why) => {
                let (layer, batched) = (&case.layer, case.kind == MappingKind::BatchedDwcS1);
                let documented = batched && (layer.s() != 1 || layer.k() * layer.k() > GRF_WORDS);
                oracle!(documented, case, "mapper: rejected it: {why}");
                tally.skips += 1;
            }
        }
    }
    tally
}

/// Unwrap a run the case must not fail.
fn ran<T, E: fmt::Display>(case: &Case, what: &str, r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| panic!("{case} — {what}: {e}"))
}

/// Check `case` against every oracle that applies to it. Returns the
/// mapping it ran (`None` for a standard conv), or the mapper's rejection.
fn check(case: &Case, golden: &Tensor, compiled: &Compiled, cycle: bool, encoded: usize) -> Result<Option<R>, String> {
    let (layer, spec) = (&case.layer, &case.spec);
    if layer.kind() == ConvKind::Standard {
        let ofm = functional_ofm(layer, &case.ifm, &case.weights);
        oracle!(ofm == *golden, case, "bits: functional_ofm ≠ reference");
        let (ofm, _) = ran(case, "im2col", run_standard_via_im2col(layer, &case.ifm, &case.weights, spec));
        oracle!(ofm == *golden, case, "bits: run_standard_via_im2col ≠ reference");
        return Ok(None);
    }
    let compiled = compiled.as_ref().map_err(Clone::clone)?;
    let closed = compiled.timing_report();
    let want = (closed.cycles, closed.compute_cycles, closed.dma_cycles, closed.macs);
    let checked = compiled.num_blocks() as u64 * u64::from(case.mode != IntegrityMode::Off);
    for tier in if cycle { &BackendTier::ALL[..] } else { &[BackendTier::Fast] } {
        let mut backend = backend_for(*tier, spec);
        backend.set_integrity_mode(case.mode);
        let (ofm, r) = ran(case, tier.as_str(), backend.run_layer(compiled, &case.ifm, &case.weights));
        oracle!(ofm == *golden, case, "bits: {tier} tier ≠ reference");
        // (cycles, compute, dma, macs) and (checked, failed, recovered).
        let got = (r.cycles, r.compute_cycles, r.dma_cycles, r.macs);
        oracle!(got == want, case, "cycles: {tier} tier {got:?} ≠ timing_report() {want:?}");
        let counts = (r.integrity_checked, r.integrity_failed, r.integrity_recovered);
        oracle!(counts == (checked, 0, 0), case, "integrity: {tier} tier counts {counts:?}");
        let util = r.utilization();
        oracle!(util <= 1.0 + 1e-9, case, "cycles: {tier} tier utilization {util}");
    }
    // Table 3: the S1 tile is K² + N_c + 1 cycles against the general
    // tile's K·N_c + K² − K + N_c + 1, so S1 wins iff (K − 1)·N_c ≥ K.
    let (k, s1) = (layer.k(), closed.compute_cycles);
    if compiled.mapping() == R::DwcS1 && (k - 1) * spec.cols >= k {
        let general = ran(case, "DWC-general", DwcGeneralLayerMap::new(layer, spec));
        let general = general.num_blocks() as u64 * general.block_compute_cycles();
        oracle!(s1 <= general, case, "DWC-S1 compute {s1} > DWC-general {general}");
    }
    if cycle {
        check_surface(case, compiled, golden, encoded);
    }
    Ok(Some(compiled.mapping()))
}

/// The surface says exactly what `materialize` yields — slots in order,
/// since a structural fault lands on the `h % len`-th — and its blocks
/// cover every OFM word exactly once. The first `encoded` blocks also meet
/// [`check_encoded`].
fn check_surface(case: &Case, compiled: &CompiledLayer, golden: &Tensor, encoded: usize) {
    let surface = compiled.surface();
    let (blocks, n) = (ran(case, "surface", surface.blocks()), compiled.num_blocks());
    oracle!(blocks.len() == n, case, "surface: {} blocks ≠ {n}", blocks.len());
    let prepared = compiled.prepare(&case.ifm);
    let (oh, ow) = (case.layer.out_h(), case.layer.out_w());
    let mut covered = vec![0u32; case.layer.out_channels() * oh * ow];
    for (i, block) in blocks.iter().enumerate() {
        let prog = compiled.materialize(i, &prepared, &case.weights);
        let got = (surface.label(i), block.tiles(), block.tile_latency(), block.compute_cycles());
        let (label, latency) = (prog.label.as_str(), prog.mapping.tile_latency());
        let want = (label, prog.tiles.tiles(), latency, prog.compute_cycles());
        oracle!(got == want, case, "surface: block {i} {got:?} ≠ materialize {want:?}");
        let listed: Vec<usize> = prog.ofm_slots.iter().map(|s| (s.c * oh + s.y) * ow + s.x).collect();
        let runs: Vec<usize> = block.slots.runs().flat_map(Run::indices).collect();
        let indexed: Vec<usize> = (0..block.slots.len()).map(|k| block.slots.flat_index(k)).collect();
        let slots_ok = runs == listed && indexed == listed && block.slots.runs().count() <= listed.len().max(1);
        oracle!(slots_ok, case, "surface: block {i} slots ≠ materialize's, in order");
        for &flat in &listed {
            covered[flat] += 1;
        }
        if i < encoded {
            check_encoded(case, i, &prog, golden);
        }
    }
    let bad = covered.iter().position(|&n| n != 1);
    oracle!(bad.is_none(), case, "cover: OFM word {bad:?} is not covered exactly once");
}

/// Block `i` from configuration words yields the words `run_block` does
/// (which the cycle tier holds to the reference), within the context
/// budget; and its trace never puts two words on one bus lane, or two lanes
/// on one bank, in a cycle.
fn check_encoded(case: &Case, i: usize, prog: &BlockProgram, golden: &Tensor) {
    let encoded = ran(case, "encoded", Machine::new(&case.spec).run_block_encoded(prog));
    let (traced, trace) = ran(case, "traced", Machine::new(&case.spec).run_block_traced(prog));
    for (how, result) in [("run_block_encoded", &encoded), ("run_block_traced", &traced)] {
        let bad = result.ofm.iter().find(|&&(c, y, x, v)| v != golden.get(c, y, x));
        oracle!(bad.is_none(), case, "{how}: block {i} word (c, y, x, v) {bad:?} ≠ reference");
    }
    let image = ran(case, "encoded", ConfigImage::compile(prog.mapping.as_ref(), &case.spec));
    let (used, budget) = (image.num_contexts(), case.spec.config_contexts);
    oracle!(used <= budget, case, "encoded: block {i} uses {used} contexts > {budget}");
    for c in trace.cycles() {
        for (bus, loads) in [("H", &c.h_loads), ("V", &c.v_loads)] {
            let ok = distinct(loads.iter().map(|e| e.lane)) && distinct(loads.iter().map(|e| e.bank));
            oracle!(
                ok,
                case,
                "bus: block {i} {bus} at tile {} cycle {}: {loads:?}",
                c.tile,
                c.cycle
            );
        }
    }
}

fn distinct(items: impl Iterator<Item = usize>) -> bool {
    let mut items: Vec<usize> = items.collect();
    items.sort_unstable();
    items.windows(2).all(|w| w[0] != w[1])
}

/// The served set: every DSC layer of MobileNet V1 and V2 at α 0.25, res 32
/// on the 4×4, solo and in bursts of 2–4, under every integrity mode. A
/// burst of stride-1 depthwise runs channel-batched, as the server does.
pub fn served_cases() -> Vec<Case> {
    let (mut cases, spec) = (Vec::new(), CgraSpec::np_cgra(4, 4));
    for model in [models::mobilenet_v1(0.25, 32), models::mobilenet_v2(0.25, 32)] {
        for (i, layer) in model.dsc_layers().enumerate() {
            for batch in 1..=4 {
                let batched =
                    batch > 1 && layer.kind() == ConvKind::Depthwise && layer.s() == 1 && layer.k() * layer.k() <= GRF_WORDS;
                let kind = [MappingKind::Auto, MappingKind::BatchedDwcS1][usize::from(batched)];
                cases.extend(Case::new("served", layer, spec, kind, batch, 1000 + 16 * i as u64).in_every_mode());
            }
        }
    }
    cases
}

/// The `sim_direct` set: the three Table 5 layers and MobileNetV1-0.5-64's
/// DSC layers on the Table 4 machine, under every integrity mode.
pub fn direct_cases() -> Vec<Case> {
    let ((pw, dw1, dw2), chain) = (models::table5_layers(), models::mobilenet_v1(0.5, 64));
    let (mut cases, spec) = (Vec::new(), CgraSpec::table4());
    for (i, layer) in [pw, dw1, dw2].iter().chain(chain.dsc_layers()).enumerate() {
        cases.extend(Case::new("direct", layer, spec, MappingKind::Auto, 1, 2000 + i as u64).in_every_mode());
    }
    cases
}

fn dw(name: &str, c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> ConvLayer {
    ConvLayer::depthwise(name, c, h, w, k, s, p)
}

/// Every mapping and the batcher's shapes (channel-batched depthwise with
/// short and 1×1 tails, row-concatenated pointwise), each with the mapping
/// it requests and the one it must resolve to.
pub fn pinned_shapes() -> [(ConvLayer, MappingKind, R); 11] {
    use MappingKind::{Auto, BatchedDwcS1 as Batched, MatmulDwc as Matmul};
    [
        (ConvLayer::pointwise("pw", 12, 10, 6, 7), Auto, R::Pwc),
        (ConvLayer::pointwise("pw.rows", 8, 16, 4 * 3, 4), Auto, R::Pwc),
        (ConvLayer::pointwise("pw.1x1", 64, 32, 1, 1), Auto, R::Pwc),
        (dw("dw.s1", 3, 11, 13, 3, 1, 1), Auto, R::DwcS1),
        (dw("dw.s2", 2, 12, 12, 3, 2, 1), Auto, R::DwcGeneral),
        (dw("dw.k5", 2, 14, 14, 5, 1, 2), Auto, R::DwcGeneral),
        (dw("dw.mm", 3, 9, 7, 3, 1, 1), Matmul, R::MatmulDwc),
        (dw("dw.mm.s2", 2, 10, 10, 3, 2, 1), Matmul, R::MatmulDwc),
        (dw("dw.b", 16 * 3, 8, 8, 3, 1, 1), Batched, R::BatchedDwcS1),
        (dw("dw.b.tail", 7 * 2, 4, 4, 3, 1, 1), Batched, R::BatchedDwcS1),
        (dw("dw.b.1x1", 64 * 4, 1, 1, 3, 1, 1), Batched, R::BatchedDwcS1),
    ]
}

/// The benchmark's two machines.
pub fn machines() -> [CgraSpec; 2] {
    [CgraSpec::np_cgra(4, 4), CgraSpec::table4()]
}

/// Pinned rows: the pinned shapes on both benchmark machines (set
/// `pinned`); fused activations on every mapping and through im2col
/// (`activation`); §5.4 channel batching against the unbatched flow
/// (`batching`).
fn pinned_cases() -> Vec<Case> {
    use MappingKind::{Auto, BatchedDwcS1 as Batched, MatmulDwc as Matmul};
    let [small, table4] = machines();
    let mut rows = Vec::new();
    for spec in [small, table4] {
        rows.extend(pinned_shapes().map(|(layer, kind, _)| ("pinned", layer, spec, kind)));
    }
    for act in [Activation::None, Activation::Relu, Activation::LeakyRelu { shift: 3 }] {
        let fused = [
            (ConvLayer::pointwise("pw", 10, 9, 7, 7), Auto),
            (dw("dw.s1", 3, 13, 11, 3, 1, 1), Auto),
            (dw("dw.s2", 2, 14, 14, 3, 2, 1), Auto),
            (dw("dw.mm", 2, 10, 10, 3, 1, 1), Matmul),
            (dw("dw.b", 8, 10, 10, 3, 1, 1), Batched),
            (ConvLayer::standard("conv", 3, 4, 8, 8, 3, 1, 1, 1), Auto),
        ];
        rows.extend(fused.map(|(layer, kind)| ("activation", layer.with_activation(act), small, kind)));
    }
    let leaky2 = dw("dw.encoded", 2, 12, 12, 3, 1, 1).with_activation(Activation::LeakyRelu { shift: 2 });
    rows.push(("activation", leaky2, small, Auto));
    for (layer, spec, kinds) in [
        (dw("dw.12", 12, 9, 9, 3, 1, 1), small, &[Batched][..]),
        (dw("dw.16", 16, 8, 8, 3, 1, 1), small, &[Batched]),
        (dw("dw.24", 24, 14, 14, 3, 1, 1), table4, &[Auto, Batched]),
    ] {
        rows.extend(kinds.iter().map(|kind| ("batching", layer.clone(), spec, *kind)));
    }
    let rows = rows.into_iter().enumerate();
    rows.map(|(i, (set, layer, spec, kind))| Case::new(set, &layer, spec, kind, 1, 100 + i as u64).in_mode(MODES[i % 3]))
        .collect()
}

/// Run the pinned rows of `set` that `keep` picks through every oracle;
/// rows on the 4×4 run every block through the encoded-ISA and trace
/// oracles.
pub fn check_pinned(set: &str, keep: impl Fn(&ConvLayer) -> bool) -> Tally {
    let cases: Vec<Case> = pinned_cases()
        .into_iter()
        .filter(|c| c.set == set && keep(&c.layer))
        .collect();
    assert!(!cases.is_empty(), "no pinned {set} row was picked");
    run_set(&cases, true, |c| if c.spec.rows == 4 { usize::MAX } else { 0 })
}

/// Seeded draws over every `np_cgra(r, c)`, `r, c ∈ 1..=8`, with divided or
/// `undivided` (`vmem_bytes = 0`) local memory: a stride-1 and a general
/// depthwise layer under each mapping request, a pointwise layer (both in
/// bursts of 1–2) and a grouped standard conv, each with a drawn activation
/// and integrity mode.
fn drawn_cases(undivided: bool) -> Vec<Case> {
    let mut cases = Vec::new();
    for (v, (r, c)) in (1..=8).flat_map(|r| (1..=8).map(move |c| (r, c))).enumerate() {
        let mut spec = CgraSpec::np_cgra(r, c);
        if undivided {
            spec.vmem_bytes = 0;
        }
        let seed = 0xD00D_0000 + 8 * (2 * v + usize::from(undivided)) as u64;
        let mut rng = TestRng::from_seed(seed);
        let mut pick = |lo: usize, hi: usize| lo + rng.index(hi - lo + 1);
        let leaky = Activation::LeakyRelu { shift: pick(1, 4) as u8 };
        let acts = [Activation::None, Activation::Relu, leaky];
        let s1 = [(1, 1), (3, 1)][pick(0, 1)];
        let general = [(5, 1), (1, 2), (3, 2), (5, 2), (3, 3)][pick(0, 4)];
        let mut layers = Vec::new();
        for (name, (k, s)) in [("drawn.dw.s1", s1), ("drawn.dw.general", general)] {
            let (h, w, pad) = (pick(k, k + 7), pick(k, k + 7), [0, k / 2][pick(0, 1)]);
            let dw = ConvLayer::depthwise(name, pick(1, 4), h, w, k, s, pad);
            layers.push((dw, &DWC_KINDS[..], pick(1, 2)));
        }
        let pw = ConvLayer::pointwise("drawn.pw", pick(1, 12), pick(1, 12), pick(1, 10), pick(1, 10));
        layers.push((pw, &[MappingKind::Auto], pick(1, 2)));
        let (groups, k) = (pick(1, 3), [1, 3][pick(0, 1)]);
        let (ci, co) = (groups * pick(1, 4), groups * pick(1, 3));
        let std = ConvLayer::standard("drawn.conv", ci, co, pick(3, 8), pick(3, 8), k, pick(1, 2), k / 2, groups);
        layers.push((std, &[MappingKind::Auto], 1));
        for (j, (layer, kinds, batch)) in layers.into_iter().enumerate() {
            let (layer, mode) = (layer.with_activation(acts[pick(0, 2)]), MODES[pick(0, 2)]);
            for kind in kinds {
                cases.push(Case::new("drawn", &layer, spec, *kind, batch, seed + j as u64).in_mode(mode));
            }
        }
    }
    cases
}

/// Run the drawn cases on `undivided` memory that `keep` picks through
/// every oracle, block 0 through the encoded-ISA and trace oracles on three
/// column counts.
pub fn check_drawn(undivided: bool, keep: impl Fn(&Case) -> bool) -> Tally {
    let cases: Vec<Case> = drawn_cases(undivided).into_iter().filter(|c| keep(c)).collect();
    assert!(!cases.is_empty(), "no drawn case was picked");
    run_set(&cases, true, |c| usize::from(matches!(c.spec.cols, 1 | 3 | 8)))
}

/// The temporal faults the liveness rows draw: a stall long enough to
/// overrun a one-block budget, the mildest slowdown, and (one draw in ten)
/// a wedge that only the budget or a cancelled token ends.
const GRAY: GrayRates = GrayRates {
    rate: 0.008,
    stall_cycles: 24,
    slowdown_factor: 2,
};

/// What the liveness rows covered: outcomes by cause, and the temporal
/// faults the runs executed by kind.
#[derive(Debug, Default)]
pub struct Liveness {
    pub ok: usize,
    pub over_budget: usize,
    pub cancelled: usize,
    pub stalls: usize,
    pub slowdowns: usize,
    pub wedges: usize,
}

/// The liveness rows: for each of `seeds`, one layer per mapping on the
/// 4×4 under a temporal-only plan `FaultPlan::gray(seed, 0.0, GRAY)` and a
/// per-block cycle budget of 1, 2 or 3 blocks' cycles (budget and mapping
/// rotate with the seed); then one run under a pre-cancelled token. Both
/// tiers must return the same OFM bits and report, or the same
/// [`SimError`](npcgra_sim::SimError), having executed the same number of
/// temporal faults.
pub fn check_liveness(seeds: std::ops::Range<u64>) -> Liveness {
    use MappingKind::{Auto, BatchedDwcS1 as Batched, MatmulDwc as Matmul};
    let spec = CgraSpec::np_cgra(4, 4);
    let layers = [
        (ConvLayer::pointwise("live.pw", 8, 8, 4, 4), Auto),
        (dw("live.dw.s1", 2, 6, 6, 3, 1, 1), Auto),
        (dw("live.dw.s2", 2, 7, 7, 3, 2, 1), Auto),
        (dw("live.dw.mm", 2, 6, 6, 3, 1, 1), Matmul),
        (dw("live.dw.b", 8, 4, 4, 3, 1, 1), Batched),
    ];
    let programs: Vec<CompiledLayer> = layers
        .iter()
        .map(|(layer, kind)| CompiledLayer::compile(layer, &spec, *kind).expect("the liveness layers map"))
        .collect();
    let mut tally = Liveness::default();
    let run = |compiled: &CompiledLayer, tier: BackendTier, plan: &FaultPlan, budget: Option<u64>, token: Option<CancelToken>| {
        let layer = compiled.layer();
        let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 7);
        let w = layer.random_weights(8);
        let mut backend = backend_for(tier, &spec);
        backend.set_fault_plan(Some(plan.clone()));
        backend.set_cycle_budget(budget);
        backend.set_cancel_token(token);
        let result = backend.run_layer(compiled, &ifm, &w);
        (result, backend.temporal_injected())
    };
    for seed in seeds {
        let compiled = &programs[seed as usize % programs.len()];
        let budget = compiled.block_compute_cycles() * (1 + seed / programs.len() as u64 % 3);
        let plan = FaultPlan::gray(seed, 0.0, GRAY);
        let row = format!("liveness: {} seed={seed} budget={budget}", compiled.layer().name());
        let cycle = run(compiled, BackendTier::CycleAccurate, &plan, Some(budget), None);
        let fast = run(compiled, BackendTier::Fast, &plan, Some(budget), None);
        assert!(cycle == fast, "{row}: cycle tier {cycle:?} ≠ fast tier {fast:?}");
        match &cycle.0 {
            Ok(_) => tally.ok += 1,
            Err(e) if matches!(e.cause, SimCause::CycleBudgetExceeded { .. }) => tally.over_budget += 1,
            Err(e) => panic!("{row}: {e}"),
        }
        for fault in executed_temporal(compiled, &plan, cycle.1) {
            match fault {
                TemporalFault::Stall { .. } => tally.stalls += 1,
                TemporalFault::Slowdown { .. } => tally.slowdowns += 1,
                TemporalFault::Wedge => tally.wedges += 1,
            }
        }
    }
    let token = CancelToken::new();
    token.cancel();
    let plan = FaultPlan::gray(0, 0.0, GRAY);
    let cycle = run(&programs[0], BackendTier::CycleAccurate, &plan, None, Some(token.clone()));
    let fast = run(&programs[0], BackendTier::Fast, &plan, None, Some(token));
    assert!(cycle == fast, "liveness: pre-cancelled: {cycle:?} ≠ {fast:?}");
    let cancelled = matches!(&cycle.0, Err(e) if e.cause == SimCause::Cancelled && (e.tile, e.cycle) == (0, 0));
    assert!(cancelled, "liveness: pre-cancelled run returned {:?}", cycle.0);
    tally.cancelled += 1;
    tally
}

/// The first `n` temporal faults `plan` draws over a fresh backend's walk
/// of `compiled` — block `i` is run ordinal `i + 1`, then tile by tile,
/// cycle by cycle — which are the `n` a run that executed `n` executed.
fn executed_temporal(compiled: &CompiledLayer, plan: &FaultPlan, n: u64) -> Vec<TemporalFault> {
    let dims = FaultDims::for_spec(compiled.spec());
    let blocks = compiled.surface().blocks().expect("the liveness layers partition their OFM");
    let grid = blocks.iter().enumerate().flat_map(|(i, b)| {
        (0..b.tiles()).flat_map(move |tile| (0..b.tile_latency()).map(move |cycle| (i as u64 + 1, tile, cycle)))
    });
    grid.flat_map(|(run, tile, cycle)| plan.sites_at(run, tile, cycle, &dims))
        .filter_map(|site| match site {
            FaultSite::Temporal(t) => Some(t),
            _ => None,
        })
        .take(usize::try_from(n).expect("fits"))
        .collect()
}
