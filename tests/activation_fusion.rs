//! Fused activations: ReLU rides the pipeline bubble for free; leaky ReLU
//! adds a two-cycle epilogue. Bit-exactness of none, ReLU and leaky ReLU on
//! every mapping, through the encoded-ISA path and im2col, is checked by the
//! simulator's differential oracle (`crates/sim/tests/harness/mod.rs`) on
//! its `activation` rows.

#[path = "../crates/sim/tests/harness/mod.rs"]
mod harness;

use harness::check_pinned;
use npcgra::nn::Activation;
use npcgra::sim::{time_layer, MappingKind};
use npcgra::{CgraSpec, ConvLayer};

/// The `activation` rows whose layer is `name`, through every oracle.
fn check_rows(name: &str) {
    check_pinned("activation", |l| l.name() == name);
}

#[test]
fn pwc_with_activations_matches_golden() {
    check_rows("pw");
}

#[test]
fn dwc_s1_with_activations_matches_golden() {
    check_rows("dw.s1");
}

#[test]
fn dwc_s2_with_activations_matches_golden() {
    check_rows("dw.s2");
}

#[test]
fn matmul_dwc_with_activations_matches_golden() {
    check_rows("dw.mm");
}

/// Leaky ReLU (shift 2) through configuration memory: every block of a
/// DWC-S1 layer, encoded, yields the reference's words within the context
/// budget.
#[test]
fn encoded_configs_carry_the_activation() {
    check_rows("dw.encoded");
}

#[test]
fn activation_in_standard_conv_via_im2col() {
    check_rows("conv");
}

#[test]
fn relu_is_free_leaky_costs_two_cycles_per_tile() {
    let spec = CgraSpec::np_cgra(4, 4);
    let base = ConvLayer::depthwise("dw", 4, 16, 16, 3, 1, 1);
    let relu = base.clone().with_activation(Activation::Relu);
    let leaky = base.clone().with_activation(Activation::LeakyRelu { shift: 2 });

    let t_base = time_layer(&base, &spec, MappingKind::Auto).unwrap();
    let t_relu = time_layer(&relu, &spec, MappingKind::Auto).unwrap();
    let t_leaky = time_layer(&leaky, &spec, MappingKind::Auto).unwrap();

    assert_eq!(t_base.compute_cycles, t_relu.compute_cycles, "ReLU reuses the bubble");
    assert!(
        t_leaky.compute_cycles > t_base.compute_cycles,
        "leaky ReLU costs extra cycles"
    );
    // Exactly 2 extra cycles per tile: 18 -> 20 on the 4x4 (K = 3).
    let tiles = t_base.compute_cycles / 18;
    assert_eq!(t_leaky.compute_cycles, t_base.compute_cycles + 2 * tiles);
}
