//! The functional fast tier.
//!
//! A fast-tier run executes no cycles, and rebuilds nothing that no input
//! can change. It is three things:
//!
//! 1. **One write of the OFM.** [`functional_ofm`] computes the layer with
//!    host arithmetic — exactly the golden reference's wrapping
//!    `i16`×`i16`→`i32` contract, so outputs are bit-identical to the cycle
//!    tier — straight into the tensor the run returns. There is no padded
//!    IFM, no H-MEM/V-MEM image, no per-block entry list and no scatter.
//! 2. **One charge per block, from the surface.** The program's
//!    [`BlockSurface`](crate::BlockSurface) — built once per
//!    [`CompiledLayer`] and shared by every run after — holds each block's
//!    label, tile count, tile latency and the OFM words it extracts (as
//!    runs over the tensor, with a proof that the blocks extract every word
//!    exactly once). A block executes as `tiles × tile_latency` compute
//!    plus [`DmaEngine`] transfer cycles, folded through the double-buffered
//!    pipeline formula; `timing_report_matches_functional` in
//!    [`crate::compiled`] is the proof obligation that makes this exact.
//! 3. **Structural faults land on the block's words.** The block loop both
//!    tiers share walks an installed [`FaultPlan`](crate::FaultPlan) over
//!    the block's `(run, tile, cycle)` grid; each structural site it lists
//!    corrupts one of the block's OFM words in place (one bit, slot and bit
//!    chosen deterministically from the site), so ABFT detection keeps
//!    firing under the fast tier. Temporal faults, the cycle budget and
//!    cancellation are the loop's, and mean the same on both tiers.
//!
//! What the fast tier does *not* model is microarchitectural fault
//! propagation (a flipped input word corrupting several outputs, or a GRF
//! trim tripping a hardware rule): every structural fault lands as a
//! single-bit output corruption, which ABFT catches at least as often as
//! the cycle tier's.

use npcgra_mem::DmaEngine;
use npcgra_nn::{truncate, Acc, ConvKind, ConvLayer, Tensor, Word};

use crate::compiled::CompiledLayer;
use crate::error::SimError;
use crate::fault::{splitmix64, FaultSite};
use crate::report::LayerReport;
use crate::surface::BlockSlots;

use super::Runner;

/// Run `compiled` on the fast tier, counting the structural faults that
/// landed in `flipped`.
pub(super) fn run(
    runner: &mut Runner,
    flipped: &mut u64,
    compiled: &CompiledLayer,
    ifm: &Tensor,
    weights: &Tensor,
) -> Result<(Tensor, LayerReport), SimError> {
    let engine = DmaEngine::new(compiled.spec());
    let dma = engine.transfer_cycles(compiled.block_input_words()) + engine.transfer_cycles(compiled.block_output_words());
    let ofm = functional_ofm(compiled.layer(), ifm, weights);
    runner.run(compiled, ifm, weights, ofm, |_, block, faults, ofm| {
        for fault in faults {
            *flipped += u64::from(flip_slot(fault.site, &block.slots, ofm));
        }
        Ok((block.compute_cycles(), dma))
    })
}

/// Land a structural fault site on the block's words of `ofm`: flip one
/// bit of one slot, both chosen as a pure function of the site — the
/// `h % len`-th slot in `ofm_slots` order. Returns whether anything changed
/// (empty blocks absorb the fault, mirroring the cycle tier's flips into
/// unloaded resources).
fn flip_slot(site: FaultSite, slots: &BlockSlots, ofm: &mut Tensor) -> bool {
    if slots.is_empty() {
        return false;
    }
    let (salt, a, b, bit) = match site {
        FaultSite::HBankBit { bank, offset, bit } => (0x48u64, bank as u64, offset as u64, bit),
        FaultSite::VBankBit { bank, offset, bit } => (0x56, bank as u64, offset as u64, bit),
        FaultSite::GrfBit { index, bit } => (0x47, index as u64, 0, bit),
        FaultSite::GrfTrim { keep } => (0x54, keep as u64, 0, 0),
        FaultSite::PeOutBit { r, c, bit } => (0x50, r as u64, c as u64, bit),
        FaultSite::Temporal(_) => return false,
    };
    let h = splitmix64(salt ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.rotate_left(32));
    let slot = usize::try_from(h % slots.len() as u64).expect("index fits");
    ofm.as_mut_slice()[slots.flat_index(slot)] ^= (1 as Word) << (bit % Word::BITS);
    true
}

/// Compute a whole layer's OFM with straight-line host arithmetic —
/// bit-identical to [`npcgra_nn::reference::run_layer`] (same wrapping
/// `i16`×`i16`→`i32` accumulate, same [`truncate`] finish; wrapping `i32`
/// addition is associative and commutative, so the accumulation orders
/// chosen here for lane-wide inner loops change nothing), written once
/// into the tensor that is returned.
///
/// # Panics
///
/// Panics if `ifm`/`weights` do not match the layer's shapes (same
/// contract as the golden reference).
#[must_use]
pub fn functional_ofm(layer: &ConvLayer, ifm: &Tensor, weights: &Tensor) -> Tensor {
    assert_eq!(
        ifm.shape(),
        (layer.in_channels(), layer.in_h(), layer.in_w()),
        "ifm does not match {}",
        layer.name()
    );
    let mut out = Tensor::zeros(layer.out_channels(), layer.out_h(), layer.out_w());
    match layer.kind() {
        ConvKind::Pointwise => pointwise_into(layer, ifm, weights, &mut out),
        ConvKind::Depthwise | ConvKind::Standard => windowed_into(layer, ifm, weights, &mut out),
    }
    out
}

/// Finish accumulators into output words: activation at accumulator level,
/// then the 16-bit store.
fn store(layer: &ConvLayer, dst: &mut [Word], accs: &[Acc]) {
    let act = layer.activation();
    for (d, &a) in dst.iter_mut().zip(accs) {
        *d = truncate(act.apply_acc(a));
    }
}

/// Words of transposed IFM a pointwise pixel block may hold (16 KB: it and
/// one weight row stay in L1 while every output channel reads them).
const PWC_BLOCK_WORDS: usize = 8192;

/// Four wrapping dot products of `w` against four equally long rows.
#[inline]
fn dot4(w: &[Word], x: [&[Word]; 4]) -> [Acc; 4] {
    let n = w.len();
    let (x0, x1, x2, x3) = (&x[0][..n], &x[1][..n], &x[2][..n], &x[3][..n]);
    let mut acc = [0 as Acc; 4];
    for i in 0..n {
        let wv = Acc::from(w[i]);
        acc[0] = acc[0].wrapping_add(wv.wrapping_mul(Acc::from(x0[i])));
        acc[1] = acc[1].wrapping_add(wv.wrapping_mul(Acc::from(x1[i])));
        acc[2] = acc[2].wrapping_add(wv.wrapping_mul(Acc::from(x2[i])));
        acc[3] = acc[3].wrapping_add(wv.wrapping_mul(Acc::from(x3[i])));
    }
    acc
}

/// Pointwise convolution as a blocked matmul `out[o][p] = w[o]·x[..][p]`
/// with the lanes along the reduction axis `N_i`: a block of pixels is
/// transposed once to `[pixel][N_i]`, then every output channel takes dot
/// products of its (contiguous) weight row against the block's pixel rows,
/// four pixels at a time. The inner loops are `N_i` long whatever the plane
/// size, so the late 4×4/2×2/1×1 planes run as lane-wide as the early ones.
fn pointwise_into(layer: &ConvLayer, ifm: &Tensor, weights: &Tensor, out: &mut Tensor) {
    let (ni, no) = (layer.in_channels(), layer.out_channels());
    let hw = layer.out_h() * layer.out_w();
    assert_eq!(weights.shape(), (no, 1, ni), "weights do not match {}", layer.name());
    let (x, w) = (ifm.as_slice(), weights.as_slice());
    let out = out.as_mut_slice();
    // Pixels per block: a multiple of four (the dot-product group).
    let block = (PWC_BLOCK_WORDS / ni).clamp(4, hw.next_multiple_of(4)) / 4 * 4;
    // The transposed block; rows past a short last block's pixels hold
    // stale words whose dot products are computed and never stored.
    let mut xt: Vec<Word> = vec![0; block * ni];
    let mut accs: Vec<Acc> = vec![0; block];
    for p0 in (0..hw).step_by(block) {
        let pixels = block.min(hw - p0);
        for i in 0..ni {
            for (j, &v) in x[i * hw + p0..][..pixels].iter().enumerate() {
                xt[j * ni + i] = v;
            }
        }
        for o in 0..no {
            let wrow = &w[o * ni..][..ni];
            for (g, acc) in accs[..pixels.next_multiple_of(4)].chunks_exact_mut(4).enumerate() {
                let row = |j: usize| &xt[(g * 4 + j) * ni..][..ni];
                acc.copy_from_slice(&dot4(wrow, [row(0), row(1), row(2), row(3)]));
            }
            store(layer, &mut out[o * hw + p0..][..pixels], &accs[..pixels]);
        }
    }
}

/// `accs[j] += xs[j] · wv`, wrapping.
#[inline]
fn multiply_accumulate(accs: &mut [Acc], xs: impl Iterator<Item = Word>, wv: Acc) {
    for (a, xv) in accs.iter_mut().zip(xs) {
        *a = a.wrapping_add(Acc::from(xv).wrapping_mul(wv));
    }
}

/// Depthwise and (grouped) standard convolution as a row-sliding window:
/// one output row's accumulators stay hot while the `K` input rows under
/// it are swept tap by tap, each tap a contiguous (stride 1) or strided
/// multiply-accumulate over the columns whose input falls inside the
/// image — the zero-padding border costs nothing.
fn windowed_into(layer: &ConvLayer, ifm: &Tensor, weights: &Tensor, out: &mut Tensor) {
    let (k, s, pad) = (layer.k(), layer.s(), layer.pad());
    let (ih, iw) = (layer.in_h(), layer.in_w());
    let (oh, ow) = (layer.out_h(), layer.out_w());
    // Input and output channels per group. Depthwise is the grouped case
    // with one of each, so one loop serves both: output channel `o` reads
    // `inputs` input channels, and its tap `(ci, ky, kx)` is word
    // `(ky·K + kx)·inputs + ci` of its `K·K·inputs` weights.
    let inputs = layer.in_channels() / layer.groups();
    let outputs = layer.out_channels() / layer.groups();
    assert_eq!(
        weights.len(),
        layer.out_channels() * k * k * inputs,
        "weights do not match {}",
        layer.name()
    );
    let (x, w) = (ifm.as_slice(), weights.as_slice());
    // Per kernel column: the output columns `lo..hi` whose input column
    // `ox·s + kx − pad` is inside the image.
    let spans: Vec<(usize, usize)> = (0..k)
        .map(|kx| {
            let lo = pad.saturating_sub(kx).div_ceil(s).min(ow);
            let hi = (iw + pad).saturating_sub(kx).div_ceil(s).min(ow);
            (lo, hi.max(lo))
        })
        .collect();
    let mut accs: Vec<Acc> = vec![0; ow];
    for o in 0..layer.out_channels() {
        let first_in = o / outputs * inputs;
        let taps = &w[o * k * k * inputs..][..k * k * inputs];
        for oy in 0..oh {
            accs.fill(0);
            for ci in 0..inputs {
                let plane = &x[(first_in + ci) * ih * iw..][..ih * iw];
                for ky in 0..k {
                    let Some(iy) = (oy * s + ky).checked_sub(pad).filter(|&iy| iy < ih) else {
                        continue;
                    };
                    let xrow = &plane[iy * iw..][..iw];
                    for (kx, &(lo, hi)) in spans.iter().enumerate() {
                        let wv = Acc::from(taps[(ky * k + kx) * inputs + ci]);
                        // A zero weight contributes exactly 0 to the
                        // wrapping sum.
                        if wv == 0 || lo == hi {
                            continue;
                        }
                        let xs = &xrow[lo * s + kx - pad..];
                        match s {
                            1 => multiply_accumulate(&mut accs[lo..hi], xs.iter().copied(), wv),
                            // A constant stride keeps the loop lane-wide.
                            2 => multiply_accumulate(&mut accs[lo..hi], xs.chunks(2).map(|pair| pair[0]), wv),
                            _ => multiply_accumulate(&mut accs[lo..hi], xs.iter().step_by(s).copied(), wv),
                        }
                    }
                }
            }
            store(layer, &mut out.as_mut_slice()[(o * oh + oy) * ow..][..ow], &accs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimCause;
    use crate::exec::{backend_for, BackendTier};
    use crate::fault::{Fault, FaultPlan};
    use crate::integrity::IntegrityMode;
    use crate::layer::MappingKind;
    use crate::machine::Machine;
    use npcgra_arch::CgraSpec;
    use npcgra_nn::{reference, Activation};

    fn spec4() -> CgraSpec {
        CgraSpec::np_cgra(4, 4)
    }

    fn layers() -> Vec<ConvLayer> {
        vec![
            ConvLayer::pointwise("pw", 12, 10, 6, 7),
            ConvLayer::pointwise("pw.relu", 9, 7, 5, 5).with_activation(Activation::Relu),
            ConvLayer::depthwise("dw.s1", 3, 11, 13, 3, 1, 1),
            ConvLayer::depthwise("dw.s2", 2, 12, 12, 3, 2, 1),
            ConvLayer::depthwise("dw.k5", 2, 14, 14, 5, 1, 2),
            ConvLayer::depthwise("dw.relu", 4, 10, 10, 3, 1, 1).with_activation(Activation::Relu),
        ]
    }

    #[test]
    fn functional_ofm_matches_reference_on_all_kinds() {
        let mut all = layers();
        all.push(ConvLayer::standard("std", 3, 4, 8, 8, 3, 1, 1, 1));
        all.push(ConvLayer::standard("std.g2", 4, 6, 9, 9, 3, 2, 1, 2).with_activation(Activation::Relu));
        for layer in all {
            let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 5);
            let w = layer.random_weights(6);
            let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
            assert_eq!(functional_ofm(&layer, &ifm, &w), golden, "{}", layer.name());
        }
    }

    #[test]
    fn fast_tier_matches_cycle_tier_outputs_and_cycles() {
        for layer in layers() {
            let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 7);
            let w = layer.random_weights(8);
            let compiled = CompiledLayer::compile(&layer, &spec4(), MappingKind::Auto).unwrap();
            let (slow, rs) = compiled.run_on(&mut Machine::new(&spec4()), &ifm, &w).unwrap();
            let (quick, rf) = backend_for(BackendTier::Fast, &spec4())
                .run_layer(&compiled, &ifm, &w)
                .unwrap();
            assert_eq!(quick, slow, "{}", layer.name());
            assert_eq!(rf.cycles, rs.cycles, "{}", layer.name());
            assert_eq!(rf.compute_cycles, rs.compute_cycles, "{}", layer.name());
            assert_eq!(rf.dma_cycles, rs.dma_cycles, "{}", layer.name());
            assert_eq!(rf.macs, rs.macs, "{}", layer.name());
        }
    }

    #[test]
    fn fast_tier_charge_equals_the_closed_form_timing_report() {
        for layer in layers() {
            let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 9);
            let w = layer.random_weights(10);
            let compiled = CompiledLayer::compile(&layer, &spec4(), MappingKind::Auto).unwrap();
            let (_, rf) = backend_for(BackendTier::Fast, &spec4())
                .run_layer(&compiled, &ifm, &w)
                .unwrap();
            let timed = compiled.timing_report();
            assert_eq!(rf.cycles, timed.cycles, "{}", layer.name());
            assert_eq!(rf.compute_cycles, timed.compute_cycles, "{}", layer.name());
        }
    }

    #[test]
    fn structural_fault_is_caught_by_abft_and_retries_independently() {
        let layer = ConvLayer::pointwise("pw", 8, 8, 4, 4);
        let compiled = CompiledLayer::compile(&layer, &spec4(), MappingKind::Auto).unwrap();
        let ifm = Tensor::random(8, 4, 4, 1);
        let w = layer.random_weights(2);
        let mut fast = backend_for(BackendTier::Fast, &spec4());
        fast.set_fault_plan(Some(FaultPlan::explicit(vec![Fault {
            tile: 0,
            cycle: 1,
            site: FaultSite::PeOutBit { r: 0, c: 0, bit: 3 },
        }])));
        fast.set_integrity_mode(IntegrityMode::Verify);
        let err = fast.run_layer(&compiled, &ifm, &w).unwrap_err();
        assert!(matches!(err.cause, SimCause::IntegrityViolation(_)), "got {err}");
        assert!(fast.faults_injected() > 0);
    }

    #[test]
    fn recompute_mode_heals_fast_tier_corruption() {
        let layer = ConvLayer::depthwise("dw", 3, 8, 8, 3, 1, 1);
        let compiled = CompiledLayer::compile(&layer, &spec4(), MappingKind::Auto).unwrap();
        let ifm = Tensor::random(3, 8, 8, 3);
        let w = layer.random_weights(4);
        let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
        let mut fast = backend_for(BackendTier::Fast, &spec4());
        fast.set_fault_plan(Some(FaultPlan::explicit(vec![Fault {
            tile: 0,
            cycle: 0,
            site: FaultSite::HBankBit {
                bank: 1,
                offset: 2,
                bit: 7,
            },
        }])));
        fast.set_integrity_mode(IntegrityMode::VerifyAndRecompute);
        let (ofm, report) = fast.run_layer(&compiled, &ifm, &w).unwrap();
        assert_eq!(ofm, golden, "healed output is golden");
        assert!(report.integrity_recovered > 0);
    }

    // The fast tier's liveness: rows of the one liveness table
    // (`exec::runner`'s tests).

    #[test]
    fn cycle_budget_semantics_match_the_cycle_tier_exactly() {
        let rows = ["ample budget, fresh token", "budget two short"];
        crate::exec::runner::tests::check_liveness_rows(&rows, &BackendTier::ALL);
    }

    #[test]
    fn wedge_is_broken_by_cancel_token() {
        crate::exec::runner::tests::check_liveness_rows(&["wedge under cancel"], &[BackendTier::Fast]);
    }

    #[test]
    fn stall_inflates_the_charge_but_not_the_values() {
        crate::exec::runner::tests::check_liveness_rows(&["stall"], &[BackendTier::Fast]);
    }
}
