//! Cross-mapping properties over seeded draws on every `np_cgra(r, c)`,
//! `r, c ∈ 1..=8`, against the simulator's differential oracle
//! (`crates/sim/tests/harness/mod.rs`): every mapping is bit-exact against
//! the reference on both tiers, charges the closed-form cycles, and, where
//! Table 3 orders them, DWC-S1 never loses to DWC-general. Each test runs
//! one mapping's slice of the draws and asserts that the mapping executed
//! in every spec class the slice spans.

#[path = "../crates/sim/tests/harness/mod.rs"]
mod harness;

use harness::{check_drawn, DIVIDED, UNDIVIDED};
use npcgra::nn::ConvKind;
use npcgra::sim::{MappingKind, ResolvedMapping as R};

fn depthwise(family: &str) -> impl Fn(&harness::Case) -> bool + '_ {
    move |c| c.layer.name().starts_with(family) && c.kind == MappingKind::Auto
}

/// Stride-1 depthwise draws on divided memory resolve to DWC-S1, whose
/// compute the oracle holds to the DWC-general layer map's.
#[test]
fn s1_never_slower_than_general() {
    check_drawn(false, depthwise("drawn.dw.s1")).assert_floor(DIVIDED, &[R::DwcS1]);
}

#[test]
fn dwc_mapping_is_exact() {
    check_drawn(false, depthwise("drawn.dw.general")).assert_floor(DIVIDED, &[R::DwcGeneral]);
}

#[test]
fn matmul_dwc_agrees() {
    check_drawn(false, |c| c.kind == MappingKind::MatmulDwc).assert_floor(DIVIDED, &[R::MatmulDwc]);
}

#[test]
fn batched_dwc_is_exact() {
    check_drawn(false, |c| c.kind == MappingKind::BatchedDwcS1).assert_floor(DIVIDED, &[R::BatchedDwcS1]);
}

#[test]
fn pwc_mapping_is_exact() {
    check_drawn(false, |c| c.layer.kind() == ConvKind::Pointwise).assert_floor(DIVIDED, &[R::Pwc]);
}

/// The matmul and channel-batched depthwise draws on undivided memory: both
/// tiers charge `timing_report()`'s cycles.
#[test]
fn timing_matches_functional() {
    let tally = check_drawn(true, |c| matches!(c.kind, MappingKind::MatmulDwc | MappingKind::BatchedDwcS1));
    tally.assert_floor(UNDIVIDED, &[R::MatmulDwc, R::BatchedDwcS1]);
}
