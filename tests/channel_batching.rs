//! The §5.4 channel-batching extension: the DMA-amortization win on
//! small-spatial-dimension DWC layers. Its exactness against the reference
//! and the unbatched flow, and its timing against the functional run, are
//! checked by the simulator's differential oracle
//! (`crates/sim/tests/harness/mod.rs`) on its `batching` rows.

#[path = "../crates/sim/tests/harness/mod.rs"]
mod harness;

use harness::check_pinned;
use npcgra::sim::{time_layer, MappingKind};
use npcgra::{CgraSpec, ConvLayer};

#[test]
fn batched_dwc_matches_golden() {
    check_pinned("batching", |l| l.name() == "dw.12");
}

/// The same layer under `Auto` and `BatchedDwcS1`: both equal the
/// reference, so they equal each other.
#[test]
fn batched_dwc_matches_unbatched() {
    check_pinned("batching", |l| l.name() == "dw.24");
}

/// The channel-batched `activation` rows: none, ReLU and leaky ReLU.
#[test]
fn batched_dwc_with_relu_matches_golden() {
    check_pinned("activation", |l| l.name() == "dw.b");
}

#[test]
fn timing_equals_functional_for_batched() {
    check_pinned("batching", |l| l.name() == "dw.16");
}

#[test]
fn batching_turns_dma_bound_layers_compute_bound() {
    // MobileNet V2's last-stage DWC (960 channels at 7x7): per-channel
    // blocks are DMA-latency-bound; batching amortizes the 200-cycle DMA
    // latency across the channel group.
    let spec = CgraSpec::table4();
    let layer = ConvLayer::depthwise("s7.dw", 960, 7, 7, 3, 1, 1);
    let plain = time_layer(&layer, &spec, MappingKind::Auto).unwrap();
    let batched = time_layer(&layer, &spec, MappingKind::BatchedDwcS1).unwrap();
    let speedup = plain.seconds() / batched.seconds();
    assert!(speedup > 2.0, "batching speedup {speedup:.2}x on 7x7x960");
    assert!(plain.dma_bound(), "the per-channel flow is DMA-bound here");
    assert!(!batched.dma_bound(), "batching should hide the DMA latency");
}

#[test]
fn batching_never_hurts_large_spatial_layers() {
    // On 112x112 the per-channel flow is already compute-bound; batching
    // (which degenerates to ~1 channel/block under the memory budget) may
    // not help but must not be more than marginally worse.
    let spec = CgraSpec::table4();
    let layer = ConvLayer::depthwise("dw1", 32, 112, 112, 3, 1, 1);
    let plain = time_layer(&layer, &spec, MappingKind::Auto).unwrap();
    let batched = time_layer(&layer, &spec, MappingKind::BatchedDwcS1).unwrap();
    assert!(
        batched.seconds() <= plain.seconds() * 1.05,
        "batched {} vs plain {}",
        batched.ms(),
        plain.ms()
    );
}
