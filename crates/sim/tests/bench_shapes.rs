//! The benchmark's own shapes, in tier-1.
//!
//! `npbench` serves the 77 DSC layers of MobileNet V1+V2 (α 0.25, res 32)
//! on the 4×4 machine — solo and as the 2–4-request combined programs the
//! server's batcher builds — and runs MobileNetV1-0.5-64's 26 layers plus
//! the three full-size Table 5 layers directly on the Table 4 machine. A
//! fast-tier change that is wrong on any of them fails the benchmark, so
//! every one is held here to the tier contract: output bits equal to
//! `nn::reference`, charged cycles equal to the closed form, under every
//! integrity mode, with no block failing its own checksum.
//!
//! The cycle-accurate leg of the same matrix is `#[ignore]`d (minutes in a
//! debug build) and runs under `scripts/check.sh`.

use npcgra_arch::CgraSpec;
use npcgra_nn::{models, reference, ConvKind, ConvLayer, Tensor};
use npcgra_sim::{backend_for, BackendTier, CompiledLayer, IntegrityMode, MappingKind};

/// One program as a backend sees it: the layer, how it is compiled, and
/// seeded tensors.
struct Case {
    layer: ConvLayer,
    kind: MappingKind,
    ifm: Tensor,
    weights: Tensor,
}

impl Case {
    fn solo(layer: &ConvLayer, seed: u64) -> Case {
        Case {
            layer: layer.clone(),
            kind: MappingKind::Auto,
            ifm: Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), seed),
            weights: layer.random_weights(seed ^ 0x5EED),
        }
    }

    /// `b` requests for `layer` as the one program `npcgra-serve`'s batcher
    /// runs: depthwise concatenates along the channel axis (kernels tiled
    /// `b` times) and prefers the channel-batched mapping when it applies;
    /// pointwise concatenates along the row axis and shares the weights.
    fn batched(layer: &ConvLayer, b: usize, seed: u64) -> Case {
        let solo: Vec<Tensor> = (0..b as u64)
            .map(|i| Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), seed + i))
            .collect();
        let weights = layer.random_weights(seed ^ 0x5EED);
        let name = format!("{}.batch{b}", layer.name());
        match layer.kind() {
            ConvKind::Depthwise => {
                let c = layer.in_channels();
                let batchable = layer.s() == 1 && layer.k() * layer.k() <= npcgra_arch::grf::GRF_WORDS;
                Case {
                    layer: ConvLayer::depthwise(&name, c * b, layer.in_h(), layer.in_w(), layer.k(), layer.s(), layer.pad())
                        .with_activation(layer.activation()),
                    kind: if batchable {
                        MappingKind::BatchedDwcS1
                    } else {
                        MappingKind::Auto
                    },
                    ifm: Tensor::from_fn(c * b, layer.in_h(), layer.in_w(), |ch, y, x| solo[ch / c].get(ch % c, y, x)),
                    weights: Tensor::from_fn(c * b, layer.k(), layer.k(), |ch, y, x| weights.get(ch % c, y, x)),
                }
            }
            ConvKind::Pointwise => {
                let h = layer.in_h();
                Case {
                    layer: ConvLayer::pointwise(&name, layer.in_channels(), layer.out_channels(), h * b, layer.in_w())
                        .with_activation(layer.activation()),
                    kind: MappingKind::Auto,
                    ifm: Tensor::from_fn(layer.in_channels(), h * b, layer.in_w(), |ch, y, x| {
                        solo[y / h].get(ch, y % h, x)
                    }),
                    weights,
                }
            }
            ConvKind::Standard => unreachable!("DSC layers only"),
        }
    }

    fn compile(&self, spec: &CgraSpec) -> CompiledLayer {
        // The server falls back to the per-kind best when the batched
        // mapping rejects a shape.
        CompiledLayer::compile(&self.layer, spec, self.kind)
            .or_else(|_| CompiledLayer::compile(&self.layer, spec, MappingKind::Auto))
            .unwrap_or_else(|e| panic!("{} does not map: {e}", self.layer.name()))
    }
}

/// The served set: every DSC layer of MobileNet V1 and V2 at α 0.25, res 32,
/// solo and in bursts of 2–4.
fn served_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for model in [models::mobilenet_v1(0.25, 32), models::mobilenet_v2(0.25, 32)] {
        for (i, layer) in model.dsc_layers().enumerate() {
            let seed = 1000 + 16 * i as u64;
            cases.push(Case::solo(layer, seed));
            cases.extend((2..=4).map(|b| Case::batched(layer, b, seed)));
        }
    }
    cases
}

/// The `sim_direct` set: the three Table 5 layers and MobileNetV1-0.5-64.
fn direct_cases() -> Vec<Case> {
    let (pw, dw1, dw2) = models::table5_layers();
    let chain = models::mobilenet_v1(0.5, 64);
    [pw, dw1, dw2]
        .iter()
        .chain(chain.dsc_layers())
        .enumerate()
        .map(|(i, layer)| Case::solo(layer, 2000 + i as u64))
        .collect()
}

/// Hold `tier` to the contract on every case, under every integrity mode.
fn assert_contract(tier: BackendTier, spec: &CgraSpec, cases: &[Case]) {
    for case in cases {
        let name = case.layer.name();
        let compiled = case.compile(spec);
        let golden = reference::run_layer(&case.layer, &case.ifm, &case.weights).unwrap();
        let closed = compiled.timing_report();
        for mode in [IntegrityMode::Off, IntegrityMode::Verify, IntegrityMode::VerifyAndRecompute] {
            let mut backend = backend_for(tier, spec);
            backend.set_integrity_mode(mode);
            let (ofm, report) = backend
                .run_layer(&compiled, &case.ifm, &case.weights)
                .unwrap_or_else(|e| panic!("{name} under {mode:?}: {e}"));
            assert!(ofm == golden, "{name} under {mode:?}: output bits differ from the reference");
            assert_eq!(report.cycles, closed.cycles, "{name} under {mode:?}");
            assert_eq!(report.compute_cycles, closed.compute_cycles, "{name} under {mode:?}");
            assert_eq!(report.dma_cycles, closed.dma_cycles, "{name} under {mode:?}");
            assert_eq!(report.integrity_failed, 0, "{name} under {mode:?}");
            assert_eq!(report.integrity_recovered, 0, "{name} under {mode:?}");
            let checked = if mode == IntegrityMode::Off {
                0
            } else {
                compiled.num_blocks() as u64
            };
            assert_eq!(report.integrity_checked, checked, "{name} under {mode:?}");
        }
    }
}

#[test]
fn served_set_solo_and_batched_holds_the_fast_tier_contract() {
    let cases = served_cases();
    assert_eq!(cases.len(), 77 * 4, "77 endpoints, bursts of 1-4");
    assert_contract(BackendTier::Fast, &CgraSpec::np_cgra(4, 4), &cases);
}

#[test]
fn sim_direct_set_holds_the_fast_tier_contract() {
    let cases = direct_cases();
    assert_eq!(cases.len(), 29);
    let spec = CgraSpec::table4();
    assert_contract(BackendTier::Fast, &spec, &cases);
    // The benchmark pins the set's simulated time; so does tier-1.
    let charged: u64 = cases.iter().map(|c| c.compile(&spec).timing_report().cycles).sum();
    assert_eq!(charged, 2_300_353);
}

#[test]
#[ignore = "cycle-accurate leg: minutes in a debug build; scripts/check.sh runs it in release"]
fn served_set_solo_and_batched_holds_the_cycle_tier_contract() {
    assert_contract(BackendTier::CycleAccurate, &CgraSpec::np_cgra(4, 4), &served_cases());
}

#[test]
#[ignore = "cycle-accurate leg: minutes in a debug build; scripts/check.sh runs it in release"]
fn sim_direct_set_holds_the_cycle_tier_contract() {
    assert_contract(BackendTier::CycleAccurate, &CgraSpec::table4(), &direct_cases());
}
