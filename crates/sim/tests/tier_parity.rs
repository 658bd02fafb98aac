//! Seeded draws over every `np_cgra(r, c)`, `r, c ∈ 1..=8`, on undivided
//! local memory (`vmem_bytes = 0`), and every drawn standard conv, against
//! the differential oracle (`harness/mod.rs`): bit-exact outputs and
//! identical charged cycles on the fast and cycle-accurate tiers, both equal
//! to the reference and the closed-form `timing_report()`; standard convs
//! through `functional_ofm` and im2col against the reference.

mod harness;

use harness::{check_drawn, UNDIVIDED};
use npcgra_nn::ConvKind;
use npcgra_sim::{MappingKind, ResolvedMapping as R};

#[test]
fn dwc_layers_are_tier_identical() {
    let tally = check_drawn(true, |c| c.layer.kind() == ConvKind::Depthwise && c.kind == MappingKind::Auto);
    tally.assert_floor(UNDIVIDED, &[R::DwcS1, R::DwcGeneral]);
}

#[test]
fn pwc_layers_are_tier_identical() {
    check_drawn(true, |c| c.layer.kind() == ConvKind::Pointwise).assert_floor(UNDIVIDED, &[R::Pwc]);
}

#[test]
fn standard_conv_functional_kernel_matches_reference() {
    for undivided in [false, true] {
        check_drawn(undivided, |c| c.layer.kind() == ConvKind::Standard);
    }
}
