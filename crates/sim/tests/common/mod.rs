//! Layer-geometry strategies shared by the differential test files.

use npcgra_nn::{Activation, ConvLayer};
use proptest::prelude::*;

pub fn activation_strategy() -> impl Strategy<Value = Activation> {
    prop_oneof![
        Just(Activation::None),
        Just(Activation::Relu),
        (1u8..5).prop_map(|shift| Activation::LeakyRelu { shift }),
    ]
}

/// Random DWC geometries: channels, size, kernel, stride, activation.
/// Padding is kept at `k/2` (the paper's "same"-ish padding) so every
/// geometry maps; strides of 2 exercise the strided AGU paths.
pub fn dwc_strategy() -> impl Strategy<Value = ConvLayer> {
    (
        1usize..6,
        4usize..12,
        4usize..12,
        prop_oneof![Just(3usize), Just(5usize)],
        1usize..3,
        activation_strategy(),
    )
        .prop_map(|(ch, h, w, k, s, act)| ConvLayer::depthwise("parity.dw", ch, h, w, k, s, k / 2).with_activation(act))
}

/// Random PWC geometries: in/out channels, size, activation.
pub fn pwc_strategy() -> impl Strategy<Value = ConvLayer> {
    (1usize..7, 1usize..7, 2usize..10, 2usize..10, activation_strategy())
        .prop_map(|(ci, co, h, w, act)| ConvLayer::pointwise("parity.pw", ci, co, h, w).with_activation(act))
}
