//! The pinned shapes — every mapping and the batcher's shapes
//! (channel-batched depthwise with short and 1×1 tails, row-concatenated
//! pointwise) — on both benchmark machines, against the differential
//! oracle (`harness/mod.rs`): the block surface says exactly what
//! `materialize` yields, both tiers match the reference and
//! `timing_report()`, and on the 4×4 every block meets the encoded-ISA and
//! bus oracles.

mod harness;

use harness::{check_pinned, machines, pinned_shapes, MACHINES};
use npcgra_nn::ConvKind;
use npcgra_sim::{CompiledLayer, ResolvedMapping as R};

#[test]
fn dwc_surfaces_equal_their_materialized_blocks() {
    let tally = check_pinned("pinned", |l| l.kind() == ConvKind::Depthwise);
    tally.assert_floor(MACHINES, &[R::DwcS1, R::DwcGeneral, R::MatmulDwc, R::BatchedDwcS1]);
}

#[test]
fn pwc_surfaces_equal_their_materialized_blocks() {
    check_pinned("pinned", |l| l.kind() == ConvKind::Pointwise).assert_floor(MACHINES, &[R::Pwc]);
}

#[test]
fn every_mapping_is_exercised_including_batched_shapes() {
    let mut resolved = Vec::new();
    for spec in machines() {
        for (layer, kind, want) in pinned_shapes() {
            let got = CompiledLayer::compile(&layer, &spec, kind).map(|c| c.mapping());
            let on = (spec.rows, spec.cols);
            assert_eq!(got.ok(), Some(want), "{} on np_cgra{on:?} under {kind:?}", layer.name());
            resolved.push((on, want));
        }
    }
    for spec in machines() {
        for mapping in harness::MAPPINGS {
            let on = (spec.rows, spec.cols);
            assert!(
                resolved.contains(&(on, mapping)),
                "no pinned shape maps to {mapping:?} on np_cgra{on:?}"
            );
        }
    }
}
