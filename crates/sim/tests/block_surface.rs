//! The block surface against what it replaces.
//!
//! The fast tier no longer materializes blocks; it reads each block's
//! label, tile count, tile latency and OFM slots from the lazily built
//! [`BlockSurface`](npcgra_sim::BlockSurface). For all five mappings, over
//! the same geometry space `tier_parity.rs` hunts plus explicit batched
//! shapes, the surface must say exactly what `materialize` yields — the
//! slots *in order*, since a structural fault lands on the `h % len`-th —
//! and its runs must cover every OFM word exactly once.

use npcgra_arch::CgraSpec;
use npcgra_nn::{ConvKind, ConvLayer, Tensor};
use npcgra_sim::{CompiledLayer, MappingKind, ResolvedMapping, Run};
use proptest::prelude::*;

mod common;
use common::{dwc_strategy, pwc_strategy};

/// Every mapping `layer` can be compiled with.
fn kinds_for(layer: &ConvLayer) -> Vec<MappingKind> {
    match layer.kind() {
        ConvKind::Depthwise => vec![MappingKind::Auto, MappingKind::MatmulDwc, MappingKind::BatchedDwcS1],
        _ => vec![MappingKind::Auto],
    }
}

/// The surface of `layer` under `kind` equals its materialized blocks, and
/// partitions the OFM. Returns the mapping it resolved to (`None` when the
/// mapper rejects the combination).
fn assert_surface_matches(
    layer: &ConvLayer,
    spec: &CgraSpec,
    kind: MappingKind,
) -> Result<Option<ResolvedMapping>, TestCaseError> {
    let Ok(compiled) = CompiledLayer::compile(layer, spec, kind) else {
        return Ok(None);
    };
    let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 7);
    let weights = layer.random_weights(8);
    let prepared = compiled.prepare(&ifm);
    let surface = compiled.surface();
    let blocks = surface.blocks().expect("the five mappings partition their OFM");
    prop_assert_eq!(blocks.len(), compiled.num_blocks());
    let (oh, ow) = (layer.out_h(), layer.out_w());
    let mut covered = vec![0u32; layer.out_channels() * oh * ow];
    for (i, block) in blocks.iter().enumerate() {
        let prog = compiled.materialize(i, &prepared, &weights);
        prop_assert_eq!(surface.label(i), &prog.label);
        prop_assert_eq!(block.tiles(), prog.tiles.tiles());
        prop_assert_eq!(block.tile_latency(), prog.mapping.tile_latency());
        prop_assert_eq!(block.compute_cycles(), prog.compute_cycles());
        let listed: Vec<usize> = prog.ofm_slots.iter().map(|s| (s.c * oh + s.y) * ow + s.x).collect();
        let from_runs: Vec<usize> = block.slots.runs().flat_map(Run::indices).collect();
        prop_assert_eq!(&from_runs, &listed, "block {} runs are not its slots in order", i);
        prop_assert_eq!(block.slots.len(), listed.len());
        for (k, &flat) in listed.iter().enumerate() {
            prop_assert_eq!(block.slots.flat_index(k), flat, "slot {} of block {}", k, i);
            covered[flat] += 1;
        }
        // O(runs), not O(words): a block is a handful of runs.
        prop_assert!(block.slots.runs().count() <= listed.len().max(1));
    }
    prop_assert!(
        covered.iter().all(|&n| n == 1),
        "the blocks do not cover the OFM exactly once"
    );
    Ok(Some(compiled.mapping()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dwc_surfaces_equal_their_materialized_blocks(layer in dwc_strategy()) {
        for kind in kinds_for(&layer) {
            assert_surface_matches(&layer, &CgraSpec::np_cgra(4, 4), kind)?;
        }
    }

    #[test]
    fn pwc_surfaces_equal_their_materialized_blocks(layer in pwc_strategy()) {
        assert_surface_matches(&layer, &CgraSpec::np_cgra(4, 4), MappingKind::Auto)?;
    }
}

#[test]
fn every_mapping_is_exercised_including_batched_shapes() {
    // The strategies above reach all five mappings; pin that, and add the
    // shapes the server's batcher builds: channel-concatenated depthwise
    // (many channels per block, short last group) and row-concatenated
    // pointwise, on both machines the benchmark uses.
    let cases = [
        (
            ConvLayer::pointwise("pw", 12, 10, 6, 7),
            MappingKind::Auto,
            ResolvedMapping::Pwc,
        ),
        (
            ConvLayer::pointwise("pw.rows", 8, 16, 4 * 3, 4),
            MappingKind::Auto,
            ResolvedMapping::Pwc,
        ),
        (
            ConvLayer::pointwise("pw.1x1", 64, 32, 1, 1),
            MappingKind::Auto,
            ResolvedMapping::Pwc,
        ),
        (
            ConvLayer::depthwise("dw.s1", 3, 11, 13, 3, 1, 1),
            MappingKind::Auto,
            ResolvedMapping::DwcS1,
        ),
        (
            ConvLayer::depthwise("dw.s2", 2, 12, 12, 3, 2, 1),
            MappingKind::Auto,
            ResolvedMapping::DwcGeneral,
        ),
        (
            ConvLayer::depthwise("dw.k5", 2, 14, 14, 5, 1, 2),
            MappingKind::Auto,
            ResolvedMapping::DwcGeneral,
        ),
        (
            ConvLayer::depthwise("dw.mm", 3, 9, 7, 3, 1, 1),
            MappingKind::MatmulDwc,
            ResolvedMapping::MatmulDwc,
        ),
        (
            ConvLayer::depthwise("dw.mm.s2", 2, 10, 10, 3, 2, 1),
            MappingKind::MatmulDwc,
            ResolvedMapping::MatmulDwc,
        ),
        (
            ConvLayer::depthwise("dw.b", 16 * 3, 8, 8, 3, 1, 1),
            MappingKind::BatchedDwcS1,
            ResolvedMapping::BatchedDwcS1,
        ),
        (
            ConvLayer::depthwise("dw.b.tail", 7 * 2, 4, 4, 3, 1, 1),
            MappingKind::BatchedDwcS1,
            ResolvedMapping::BatchedDwcS1,
        ),
        (
            ConvLayer::depthwise("dw.b.1x1", 64 * 4, 1, 1, 3, 1, 1),
            MappingKind::BatchedDwcS1,
            ResolvedMapping::BatchedDwcS1,
        ),
    ];
    for spec in [CgraSpec::np_cgra(4, 4), CgraSpec::table4()] {
        for (layer, kind, want) in &cases {
            let got = assert_surface_matches(layer, &spec, *kind).unwrap_or_else(|e| panic!("{}: {e}", layer.name()));
            assert_eq!(got, Some(*want), "{}", layer.name());
        }
    }
}
