//! Differential property tests: the functional fast tier versus the
//! cycle-accurate machine.
//!
//! The fast tier's contract is total indistinguishability on fault-free
//! runs: **bit-exact outputs** (same `Word` wrapping arithmetic, same
//! fused activations, same truncation) and **identical charged cycles**
//! (the closed-form latency models of §5 — `N_i + λ` per DWC output, `K² +
//! N_c − 1 + λ` per PWC column — which [`CompiledLayer::timing_report`]
//! folds through the same double-buffered DMA pipeline the machine
//! simulates). Any layer geometry where either diverges is a bug in one
//! tier or the other, so we let proptest hunt the geometry space instead
//! of hand-picking shapes.
//!
//! Standard convolutions never reach a `CompiledLayer` (they lower through
//! im2col); for them the fast tier's functional kernel is checked against
//! the golden host reference directly, grouped variants included.

use npcgra_arch::CgraSpec;
use npcgra_nn::{reference, ConvLayer, Tensor};
use npcgra_sim::{functional_ofm, CompiledLayer, ExecutionBackend, FastMachine, Machine, MappingKind};
use proptest::prelude::*;

mod common;
use common::{activation_strategy, dwc_strategy, pwc_strategy};

/// Random standard-conv geometries, grouped variants included: `ci` is a
/// multiple of `groups` by construction.
fn standard_strategy() -> impl Strategy<Value = ConvLayer> {
    (
        1usize..4,
        1usize..5,
        1usize..4,
        3usize..8,
        3usize..8,
        1usize..3,
        activation_strategy(),
    )
        .prop_map(|(groups, ci_per, co_per, h, w, s, act)| {
            ConvLayer::standard("parity.std", ci_per * groups, co_per * groups, h, w, 3, s, 1, groups).with_activation(act)
        })
}

/// Run `layer` through both tiers on a small machine and assert the full
/// parity contract: outputs, total cycles, compute cycles, DMA cycles and
/// MAC counts all identical — and equal to the closed-form timing report.
fn assert_tier_parity(layer: &ConvLayer, seed: u64) -> Result<(), TestCaseError> {
    let spec = CgraSpec::np_cgra(4, 4);
    let compiled = match CompiledLayer::compile(layer, &spec, MappingKind::Auto) {
        Ok(c) => c,
        // A geometry the mapper rejects is outside the contract; skip it.
        Err(_) => return Ok(()),
    };
    let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), seed);
    let weights = layer.random_weights(seed ^ 0xA5A5);

    let mut cycle = Machine::new(&spec);
    let (golden_ofm, golden_report) = compiled.run_on(&mut cycle, &ifm, &weights).expect("cycle tier runs");
    let mut fast = FastMachine::new(&spec);
    let (fast_ofm, fast_report) = fast.run_layer(&compiled, &ifm, &weights).expect("fast tier runs");

    prop_assert_eq!(&fast_ofm, &golden_ofm, "fast-tier output bits diverged");
    prop_assert_eq!(fast_report.cycles, golden_report.cycles, "charged cycles diverged");
    prop_assert_eq!(
        fast_report.compute_cycles,
        golden_report.compute_cycles,
        "compute cycles diverged"
    );
    prop_assert_eq!(fast_report.dma_cycles, golden_report.dma_cycles, "DMA cycles diverged");
    prop_assert_eq!(fast_report.macs, golden_report.macs, "MAC count diverged");

    let closed_form = compiled.timing_report();
    prop_assert_eq!(
        fast_report.cycles,
        closed_form.cycles,
        "analytical charge left the closed-form model"
    );

    // And both tiers must agree with the golden host reference.
    let host = reference::run_layer(layer, &ifm, &weights).expect("reference runs");
    prop_assert_eq!(&fast_ofm, &host, "tiers agree with each other but not the host reference");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random depthwise layers: bit-exact outputs and identical cycle
    /// charges across tiers, equal to the `N_i + λ` closed form.
    #[test]
    fn dwc_layers_are_tier_identical(layer in dwc_strategy(), seed in any::<u64>()) {
        assert_tier_parity(&layer, seed)?;
    }

    /// Random pointwise layers: bit-exact outputs and identical cycle
    /// charges across tiers, equal to the `K² + N_c − 1 + λ` closed form.
    #[test]
    fn pwc_layers_are_tier_identical(layer in pwc_strategy(), seed in any::<u64>()) {
        assert_tier_parity(&layer, seed)?;
    }

    /// Random standard convolutions (grouped included): the fast tier's
    /// functional kernel matches the golden host reference bit-exactly.
    /// (`CompiledLayer` rejects standard convs, so there is no schedule to
    /// replay — in serving they stay on the im2col cycle-accurate path.)
    #[test]
    fn standard_conv_functional_kernel_matches_reference(layer in standard_strategy(), seed in any::<u64>()) {
        let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), seed);
        let weights = layer.random_weights(seed ^ 0x57D);
        let host = reference::run_layer(&layer, &ifm, &weights).expect("reference runs");
        prop_assert_eq!(functional_ofm(&layer, &ifm, &weights), host);
    }
}
