//! Algorithm-based fault tolerance (ABFT): host-side output verification.
//!
//! The fault model ([`crate::fault`]) is explicit that data bit flips in
//! H-MEM/V-MEM, the GRF and the PE accumulators corrupt block outputs
//! *silently* — the memory layouts carry no redundancy. This module closes
//! that hole on the host side: after each block run, the extracted OFM
//! words are checked against a checksum identity computed directly from
//! the layer's inputs and weights, in O(output) extra host work.
//!
//! The identities exploit that the whole datapath is *linear arithmetic
//! mod 2¹⁶*: the 32-bit accumulator wraps, and [`truncate`] (the 16-bit
//! store) is a ring homomorphism onto wrapping [`Word`] arithmetic, so
//! sums of outputs can be predicted exactly with wrapping 16-bit adds and
//! multiplies — no tolerance thresholds, a mismatch is corruption.
//!
//! * **Pointwise / matmul** (the paper's output-stationary PWC mapping is
//!   a tiled matmul, the textbook ABFT target): Huang–Abraham row and
//!   column checksums. Per output channel `o` over the block's pixel set
//!   `P`: `Σ_{p∈P} out(o,p) = Σ_i w(o,i) · Σ_{p∈P} ifm(i,p)`; dually, per
//!   pixel `p` over the block's channel set `O`:
//!   `Σ_{o∈O} out(o,p) = Σ_i (Σ_{o∈O} w(o,i)) · ifm(i,p)`. The row check
//!   localizes a mismatch to an output channel, the column dual to a pixel.
//! * **Depthwise** (any stride, every DWC mapping — §5.2/§5.3/§5.4 and the
//!   matmul lowering): per-channel output sums.
//!   `Σ out_c = Σ_taps w_c[k] · Σ ifm_c over the positions tap k touches`.
//!
//! Activated layers (ReLU / leaky ReLU) are not linear, so the checksum
//! identities do not apply; they fall back to an exact per-element golden
//! recompute of the block's own outputs — same asymptotic cost for
//! depthwise, and still a per-block (not per-layer) cost for pointwise.
//!
//! Each identity is written once, over a `PixelSet` of rectangles, and
//! checked by one verifier that both tiers' block loop calls:
//! `verify_slots` reads a block of the
//! [`BlockSurface`](crate::BlockSurface) where its runs lie in the OFM
//! tensor (the block *is* a channel range × pixel rectangle, so nothing is
//! grouped or allocated), and `heal_slots` recomputes it there. The tests
//! hold it to an entry-list verifier that groups arbitrary `(c, y, x, v)`
//! words by channel and pixel: same identities, same order, same
//! [`Violation`].
//!
//! [`truncate`]: npcgra_nn::truncate

use npcgra_nn::{truncate, Acc, Activation, ConvKind, ConvLayer, Tensor, Word};

use crate::fault::splitmix64;
use crate::surface::{BlockSlots, Run};

/// How (and whether) block outputs are verified after execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrityMode {
    /// No verification (the pre-ABFT behaviour): silent corruption stays
    /// silent.
    #[default]
    Off,
    /// Verify every block; a mismatch fails the run with
    /// [`SimCause::IntegrityViolation`](crate::SimCause::IntegrityViolation)
    /// so callers can retry (transient faults draw independently per run).
    Verify,
    /// Verify every block; a mismatch is healed in place by recomputing
    /// the block's outputs on the host (golden arithmetic) and counted in
    /// the report instead of failing the run.
    VerifyAndRecompute,
}

/// Which checksum identity a violation tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// Depthwise per-channel output sum (`lane` = channel).
    ChannelSum,
    /// Pointwise row checksum (`lane` = output channel).
    RowChecksum,
    /// Pointwise column checksum (`lane` = pixel index `y·W + x`).
    ColumnChecksum,
    /// Exact per-element recompute, used for activated (non-linear) layers
    /// (`lane` = flat output index).
    Element,
}

impl std::fmt::Display for CheckKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckKind::ChannelSum => f.write_str("channel-sum"),
            CheckKind::RowChecksum => f.write_str("row-checksum"),
            CheckKind::ColumnChecksum => f.write_str("column-checksum"),
            CheckKind::Element => f.write_str("element"),
        }
    }
}

/// A failed output-integrity check: which identity, where, and the two
/// checksum values that disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The identity that tripped.
    pub kind: CheckKind,
    /// Channel or pixel the mismatch localizes to (see [`CheckKind`]).
    pub lane: usize,
    /// Checksum predicted from inputs and weights.
    pub expected: Word,
    /// Checksum of the words the machine actually produced.
    pub actual: Word,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} mismatch on lane {}: expected {:#06x}, got {:#06x}",
            self.kind, self.lane, self.expected as u16, self.actual as u16
        )
    }
}

/// A set of output pixels of one image plane, handed to the checksum
/// identities as rectangles `(y, rows, x, len)`: `len` consecutive pixels
/// from column `x` on each of `rows` consecutive image rows from `y` —
/// usually one rectangle per block of the surface's [`BlockSlots`].
pub(crate) trait PixelSet {
    /// Visit the set's rectangles.
    fn for_each_rect(&self, f: impl FnMut(usize, usize, usize, usize));

    /// Visit the set's row segments `(y, x, len)`, rectangle by rectangle.
    fn for_each_segment(&self, mut f: impl FnMut(usize, usize, usize)) {
        self.for_each_rect(|y, rows, x, len| (y..y + rows).for_each(|y| f(y, x, len)));
    }
}

/// Wrapping sum of words.
fn total(words: impl Iterator<Item = Word>) -> Word {
    words.fold(0, Word::wrapping_add)
}

/// Wrapping sum of a slice of words.
fn word_sum(words: &[Word]) -> Word {
    total(words.iter().copied())
}

/// Reusable working memory of [`verify_slots`]: the pointwise identities'
/// per-input-channel sums and per-pixel checksums. Owned by the backend, so
/// verifying a block allocates nothing once the widest layer has been seen.
#[derive(Debug, Default)]
pub(crate) struct AbftScratch {
    words: Vec<Word>,
}

/// Verify one block of the [`BlockSurface`](crate::BlockSurface) against
/// the layer's checksum identity (or, for activated layers, an exact
/// per-element recompute), reading its words straight from the OFM tensor
/// its `slots` index, with no entry list and no per-block allocation.
///
/// `ifm` is the layer's *raw* input (zero padding is applied here, exactly
/// as the golden reference does). The check costs O(block words) host work
/// (times the constant kernel size for depthwise).
///
/// # Errors
///
/// Returns the first [`Violation`] found. The identities are exact mod
/// 2¹⁶, so a violation is always real corruption; a passing check bounds
/// undetected corruption to errors that cancel in every checksum.
pub(crate) fn verify_slots(
    layer: &ConvLayer,
    ifm: &Tensor,
    weights: &Tensor,
    ofm: &Tensor,
    slots: &BlockSlots,
    scratch: &mut AbftScratch,
) -> Result<(), Violation> {
    if slots.is_empty() {
        return Ok(());
    }
    let out = ofm.as_slice();
    let plane = layer.out_h() * layer.out_w();
    // Σ of channel `c`'s words over the block's pixel rows.
    let channel_sum = |c: usize| {
        slots.pixel_rows().fold(0 as Word, |acc, (p, len)| {
            acc.wrapping_add(word_sum(&out[c * plane + p..][..len]))
        })
    };
    let linear = layer.activation() == Activation::None;
    match layer.kind() {
        ConvKind::Depthwise if linear => {
            for c in slots.channels() {
                let expected = depthwise_expected(layer, ifm, weights, c, slots);
                check(CheckKind::ChannelSum, c, expected, channel_sum(c))?;
            }
            Ok(())
        }
        ConvKind::Pointwise if linear => {
            let n_i = layer.in_channels();
            let width = layer.out_w();
            // Every part is overwritten before it is read.
            let need = 2 * n_i + 2 * width;
            if scratch.words.len() < need {
                scratch.words.resize(need, 0);
            }
            let (sums, rest) = scratch.words.split_at_mut(n_i);
            let (cols, rest) = rest.split_at_mut(n_i);
            let (expected, actual) = rest[..2 * width].split_at_mut(width);
            pixel_sums(ifm, slots, sums);
            cols.fill(0);
            for o in slots.channels() {
                check(CheckKind::RowChecksum, o, row_expected(weights, o, sums), channel_sum(o))?;
                // While the weight row is hot: its share of the column side.
                add_weight_row(weights, o, cols);
            }
            let mut first = Ok(());
            slots.for_each_segment(|y, x, len| {
                if first.is_err() {
                    return;
                }
                let (expected, actual) = (&mut expected[..len], &mut actual[..len]);
                column_expected(ifm, cols, y, x, expected);
                actual.fill(0);
                for o in slots.channels() {
                    for (a, &v) in actual.iter_mut().zip(&out[o * plane + y * width + x..][..len]) {
                        *a = a.wrapping_add(v);
                    }
                }
                if let Some(j) = (0..len).find(|&j| expected[j] != actual[j]) {
                    first = check(CheckKind::ColumnChecksum, y * width + x + j, expected[j], actual[j]);
                }
            });
            first
        }
        // Activated (non-linear) layers: exact per-element recompute, in
        // slot order.
        _ => {
            for flat in slots.runs().flat_map(Run::indices) {
                let (c, y, x) = slots.coords(flat);
                check(
                    CheckKind::Element,
                    flat,
                    golden_element(layer, ifm, weights, c, y, x),
                    out[flat],
                )?;
            }
            Ok(())
        }
    }
}

/// Recompute each word of a failed block of the surface in place in the
/// OFM tensor (golden arithmetic) — the recovery half of
/// [`IntegrityMode::VerifyAndRecompute`].
pub(crate) fn heal_slots(layer: &ConvLayer, ifm: &Tensor, weights: &Tensor, ofm: &mut Tensor, slots: &BlockSlots) {
    for flat in slots.runs().flat_map(Run::indices) {
        let (c, y, x) = slots.coords(flat);
        ofm.as_mut_slice()[flat] = golden_element(layer, ifm, weights, c, y, x);
    }
}

/// One checksum comparison.
fn check(kind: CheckKind, lane: usize, expected: Word, actual: Word) -> Result<(), Violation> {
    if expected == actual {
        return Ok(());
    }
    Err(Violation {
        kind,
        lane,
        expected,
        actual,
    })
}

/// Wrapping sum of `n` words of `row`, `s` apart, from `first`.
fn strided_sum(row: &[Word], first: usize, s: usize, n: usize) -> Word {
    match s {
        1 => word_sum(&row[first..first + n]),
        // A constant stride keeps the loop lane-wide.
        2 => total(row[first..].chunks(2).take(n).map(|pair| pair[0])),
        _ => total(row[first..].iter().step_by(s).take(n).copied()),
    }
}

/// The depthwise identity's input side for channel `c` over an output
/// pixel set: `Σ_taps w_c[k] · Σ ifm_c over the positions tap k touches`.
///
/// Regrouped by *input row* so each is swept once per rectangle: row `r`
/// feeds kernel row `ky` of output row `oy` wherever `oy·S + ky − pad = r`,
/// so its window sum for tap column `kx` is weighted by the sum of those
/// `w[ky][kx]`. Only the first `S` tap columns are summed directly: tap
/// column `kx + S` reads what `kx` reads one output column to the right,
/// so its sum is the previous one minus the word that left the window plus
/// the one that entered. (Wrapping arithmetic is a ring, so regrouping the
/// products changes nothing.)
fn depthwise_expected(layer: &ConvLayer, ifm: &Tensor, weights: &Tensor, c: usize, pixels: &(impl PixelSet + ?Sized)) -> Word {
    let (k, s, pad) = (layer.k(), layer.s(), layer.pad());
    let (ih, iw) = (layer.in_h(), layer.in_w());
    let plane = &ifm.as_slice()[ifm.index(c, 0, 0)..][..ih * iw];
    let taps = &weights.as_slice()[weights.index(c, 0, 0)..][..k * k];
    let mut expected: Word = 0;
    pixels.for_each_rect(|oy, rows, ox, len| {
        for first_kx in 0..s.min(k) {
            // Output columns `lo..hi` of the rectangle whose input column
            // `(ox + j)·s + kx − pad` is inside the image.
            let lo = pad.saturating_sub(first_kx).div_ceil(s).saturating_sub(ox).min(len);
            let hi = (iw + pad).saturating_sub(first_kx).div_ceil(s).saturating_sub(ox).min(len);
            // Input rows under the rectangle, in padded coordinates
            // (`r + pad`).
            for padded in (oy * s).max(pad)..((oy + rows - 1) * s + k).min(ih + pad) {
                let row = &plane[(padded - pad) * iw..][..iw];
                // The kernel rows that read this input row for some output
                // row `oy'` of the rectangle (`oy'·s + ky = padded`): every
                // `s`-th from the first at or above `padded − (oy+rows−1)·s`,
                // up to `padded − oy·s`. Their weights are summed per tap
                // column.
                let above = padded.saturating_sub((oy + rows - 1) * s);
                let first_ky = above + (padded - above) % s;
                let last_ky = (padded - oy * s).min(k - 1);
                let weight = |kx: usize| {
                    (first_ky..=last_ky)
                        .step_by(s)
                        .fold(0, |acc: Word, ky| acc.wrapping_add(taps[ky * k + kx]))
                };
                // The input word `pad` columns left of `col`; padding reads 0.
                let at = |col: usize| col.checked_sub(pad).and_then(|col| row.get(col)).copied().unwrap_or(0);
                let mut sum = if lo < hi {
                    strided_sum(row, (ox + lo) * s + first_kx - pad, s, hi - lo)
                } else {
                    0
                };
                let mut kx = first_kx;
                loop {
                    expected = expected.wrapping_add(weight(kx).wrapping_mul(sum));
                    if kx + s >= k {
                        break;
                    }
                    sum = sum.wrapping_sub(at(ox * s + kx)).wrapping_add(at((ox + len) * s + kx));
                    kx += s;
                }
            }
        }
    });
    expected
}

/// The pointwise row identity's input side: `sums[i] = Σ_{p∈P} ifm(i, p)`.
fn pixel_sums(ifm: &Tensor, pixels: &(impl PixelSet + ?Sized), sums: &mut [Word]) {
    let (_, h, w) = ifm.shape();
    let x = ifm.as_slice();
    sums.fill(0);
    pixels.for_each_segment(|y, x0, len| {
        assert!(y < h && x0 + len <= w, "segment ({y},{x0},{len}) outside the {h}x{w} plane");
        for (sum, plane) in sums.iter_mut().zip(x.chunks_exact(h * w)) {
            *sum = sum.wrapping_add(word_sum(&plane[y * w + x0..][..len]));
        }
    });
}

/// The pointwise row identity for output channel `o`: `Σ_i w(o,i) · sums[i]`.
fn row_expected(weights: &Tensor, o: usize, sums: &[Word]) -> Word {
    let row = &weights.as_slice()[weights.index(o, 0, 0)..][..sums.len()];
    row.iter()
        .zip(sums)
        .fold(0, |acc: Word, (&w, &s)| acc.wrapping_add(w.wrapping_mul(s)))
}

/// The pointwise column identity's weight side, one output channel at a
/// time: `cols[i] += w(o,i)`; over a channel set `O` from zero,
/// `cols[i] = Σ_{o∈O} w(o,i)`.
fn add_weight_row(weights: &Tensor, o: usize, cols: &mut [Word]) {
    let row = &weights.as_slice()[weights.index(o, 0, 0)..][..cols.len()];
    for (col, &w) in cols.iter_mut().zip(row) {
        *col = col.wrapping_add(w);
    }
}

/// The pointwise column identity for the pixels `(y, x..x+len)`:
/// `expected[j] = Σ_i cols[i] · ifm(i, y, x+j)`.
fn column_expected(ifm: &Tensor, cols: &[Word], y: usize, x: usize, expected: &mut [Word]) {
    expected.fill(0);
    for (i, &col) in cols.iter().enumerate() {
        let row = &ifm.as_slice()[ifm.index(i, y, x)..][..expected.len()];
        for (e, &v) in expected.iter_mut().zip(row) {
            *e = e.wrapping_add(col.wrapping_mul(v));
        }
    }
}

/// One output element via the golden reference arithmetic (wrapping 32-bit
/// accumulation, activation at accumulator level, 16-bit truncation) —
/// bit-identical to [`npcgra_nn::reference::run_layer`].
fn golden_element(layer: &ConvLayer, ifm: &Tensor, weights: &Tensor, c: usize, oy: usize, ox: usize) -> Word {
    let mut acc: Acc = 0;
    match layer.kind() {
        ConvKind::Depthwise => {
            let (k, s) = (layer.k(), layer.s());
            let pad = layer.pad() as isize;
            for ky in 0..k {
                for kx in 0..k {
                    let iy = (oy * s + ky) as isize - pad;
                    let ix = (ox * s + kx) as isize - pad;
                    let x = ifm.get_padded(c, iy, ix);
                    acc = acc.wrapping_add(Acc::from(x).wrapping_mul(Acc::from(weights.get(c, ky, kx))));
                }
            }
        }
        ConvKind::Pointwise => {
            for i in 0..layer.in_channels() {
                acc = acc.wrapping_add(Acc::from(ifm.get(i, oy, ox)).wrapping_mul(Acc::from(weights.get(c, 0, i))));
            }
        }
        ConvKind::Standard => {
            let (k, s) = (layer.k(), layer.s());
            let pad = layer.pad() as isize;
            let g = layer.groups();
            let cin_per_g = layer.in_channels() / g;
            let cout_per_g = layer.out_channels() / g;
            let grp = c / cout_per_g;
            for ci in 0..cin_per_g {
                let ch = grp * cin_per_g + ci;
                for ky in 0..k {
                    for kx in 0..k {
                        let iy = (oy * s + ky) as isize - pad;
                        let ix = (ox * s + kx) as isize - pad;
                        let x = ifm.get_padded(ch, iy, ix);
                        let wv = weights.get(c, ky, kx * cin_per_g + ci);
                        acc = acc.wrapping_add(Acc::from(x).wrapping_mul(Acc::from(wv)));
                    }
                }
            }
        }
    }
    truncate(layer.activation().apply_acc(acc))
}

/// A positional checksum of a whole tensor, for verifying inter-stage
/// activation handoffs in pipelined whole-model serving.
///
/// Unlike the per-block ABFT identities above (which predict outputs from
/// inputs), this is a plain content hash: each word is mixed with its flat
/// index through splitmix64 and the mixes are wrapping-summed, so any
/// single-bit flip — and any transposition of two unequal words — changes
/// the result. It costs O(len) and is a pure function of the tensor's
/// shape and contents.
#[must_use]
pub fn tensor_checksum(t: &Tensor) -> u64 {
    let (c, h, w) = t.shape();
    let mut sum = splitmix64((c as u64) << 42 ^ (h as u64) << 21 ^ w as u64);
    for (i, &v) in t.as_slice().iter().enumerate() {
        sum = sum.wrapping_add(splitmix64((i as u64) << 16 ^ u64::from(v as u16)));
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::{CompiledLayer, ResolvedMapping};
    use crate::layer::MappingKind;
    use npcgra_arch::CgraSpec;
    use npcgra_nn::reference;

    // ---- the entry-list verifier: the reference `verify_slots` is held to ----

    /// One extracted output word: `(channel, y, x, value)`, exactly as
    /// [`BlockResult::ofm`](crate::BlockResult) carries them.
    type OfmEntry = (usize, usize, usize, Word);

    impl PixelSet for [(usize, usize)] {
        fn for_each_rect(&self, mut f: impl FnMut(usize, usize, usize, usize)) {
            for &(y, x) in self {
                f(y, 1, x, 1);
            }
        }
    }

    /// Verify one block's extracted outputs against the layer's checksum
    /// identity (or, for activated layers, an exact per-element recompute).
    ///
    /// `ifm` is the layer's *raw* input (zero padding is applied here, exactly
    /// as the golden reference does); `entries` are the block's OFM words as
    /// the machine extracted them. The check costs O(`entries`) host work
    /// (times the constant kernel size for depthwise).
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] found. The identities are exact mod
    /// 2¹⁶, so a violation is always real corruption; a passing check bounds
    /// undetected corruption to errors that cancel in every checksum.
    fn verify_block(layer: &ConvLayer, ifm: &Tensor, weights: &Tensor, entries: &[OfmEntry]) -> Result<(), Violation> {
        if entries.is_empty() {
            return Ok(());
        }
        if layer.activation() != Activation::None {
            return verify_elements(layer, ifm, weights, entries);
        }
        match layer.kind() {
            ConvKind::Depthwise => verify_depthwise(layer, ifm, weights, entries),
            ConvKind::Pointwise => verify_pointwise(layer, ifm, weights, entries),
            // Standard convolution never reaches the block path directly (it is
            // lowered through im2col), but stay total for robustness.
            ConvKind::Standard => verify_elements(layer, ifm, weights, entries),
        }
    }

    /// Recompute every entry of a failed block on the host (golden arithmetic)
    /// and patch the extracted words in place — the recovery half of
    /// [`IntegrityMode::VerifyAndRecompute`].
    fn heal_block(layer: &ConvLayer, ifm: &Tensor, weights: &Tensor, entries: &mut [OfmEntry]) {
        for e in entries.iter_mut() {
            e.3 = golden_element(layer, ifm, weights, e.0, e.1, e.2);
        }
    }

    /// Depthwise: per-channel output sums against [`depthwise_expected`].
    fn verify_depthwise(layer: &ConvLayer, ifm: &Tensor, weights: &Tensor, entries: &[OfmEntry]) -> Result<(), Violation> {
        let mut by_channel: std::collections::BTreeMap<usize, (Vec<(usize, usize)>, Word)> = std::collections::BTreeMap::new();
        for &(c, y, x, v) in entries {
            let slot = by_channel.entry(c).or_default();
            slot.0.push((y, x));
            slot.1 = slot.1.wrapping_add(v);
        }
        for (c, (positions, actual)) in by_channel {
            let expected = depthwise_expected(layer, ifm, weights, c, positions.as_slice());
            check(CheckKind::ChannelSum, c, expected, actual)?;
        }
        Ok(())
    }

    /// Pointwise: Huang–Abraham row checksums (per output channel, localizing
    /// to a channel) and column checksums (per pixel, localizing to a pixel).
    ///
    /// Input-side sums are memoized per distinct pixel/channel *set*, so a
    /// rectangular block pays each input word once, not once per output row.
    fn verify_pointwise(layer: &ConvLayer, ifm: &Tensor, weights: &Tensor, entries: &[OfmEntry]) -> Result<(), Violation> {
        use std::collections::BTreeMap;
        let n_i = layer.in_channels();

        // Row checksums: per output channel over its pixel set.
        let mut by_out: BTreeMap<usize, (Vec<(usize, usize)>, Word)> = BTreeMap::new();
        for &(o, y, x, v) in entries {
            let slot = by_out.entry(o).or_default();
            slot.0.push((y, x));
            slot.1 = slot.1.wrapping_add(v);
        }
        // Per-input-channel pixel sums, memoized by pixel set (blocks are
        // rectangular, so usually one distinct set).
        let mut memo: BTreeMap<Vec<(usize, usize)>, Vec<Word>> = BTreeMap::new();
        for (o, (mut pixels, actual)) in by_out {
            pixels.sort_unstable();
            let sums = memo.entry(pixels).or_insert_with_key(|pixels| {
                let mut sums = vec![0; n_i];
                pixel_sums(ifm, pixels.as_slice(), &mut sums);
                sums
            });
            check(CheckKind::RowChecksum, o, row_expected(weights, o, sums), actual)?;
        }

        // Column checksums: per pixel over its output-channel set.
        let mut by_pixel: BTreeMap<(usize, usize), (Vec<usize>, Word)> = BTreeMap::new();
        for &(o, y, x, v) in entries {
            let slot = by_pixel.entry((y, x)).or_default();
            slot.0.push(o);
            slot.1 = slot.1.wrapping_add(v);
        }
        // Weight column sums, memoized by output-channel set.
        let mut memo: BTreeMap<Vec<usize>, Vec<Word>> = BTreeMap::new();
        for ((y, x), (mut outs, actual)) in by_pixel {
            outs.sort_unstable();
            let cols = memo.entry(outs).or_insert_with_key(|outs| {
                let mut cols = vec![0; n_i];
                for &o in outs {
                    add_weight_row(weights, o, &mut cols);
                }
                cols
            });
            let mut expected = [0];
            column_expected(ifm, cols, y, x, &mut expected);
            check(CheckKind::ColumnChecksum, y * layer.out_w() + x, expected[0], actual)?;
        }
        Ok(())
    }

    /// Exact per-element golden recompute of the block's own outputs — the
    /// fallback for activated (non-linear) layers, where the checksum
    /// identities do not hold.
    fn verify_elements(layer: &ConvLayer, ifm: &Tensor, weights: &Tensor, entries: &[OfmEntry]) -> Result<(), Violation> {
        for &(c, y, x, v) in entries {
            let lane = (c * layer.out_h() + y) * layer.out_w() + x;
            check(CheckKind::Element, lane, golden_element(layer, ifm, weights, c, y, x), v)?;
        }
        Ok(())
    }

    /// Turn a golden OFM tensor into the entry list a block would extract.
    fn entries_of(ofm: &Tensor) -> Vec<OfmEntry> {
        let (c, h, w) = ofm.shape();
        let mut out = Vec::with_capacity(c * h * w);
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    out.push((ci, y, x, ofm.get(ci, y, x)));
                }
            }
        }
        out
    }

    fn layers() -> Vec<ConvLayer> {
        vec![
            ConvLayer::pointwise("pw", 9, 7, 5, 6),
            ConvLayer::depthwise("dw1", 3, 11, 9, 3, 1, 1),
            ConvLayer::depthwise("dw2", 2, 12, 12, 3, 2, 1),
            ConvLayer::depthwise("dw5", 2, 13, 13, 5, 1, 2),
            ConvLayer::standard("st", 4, 4, 6, 6, 3, 1, 1, 2),
        ]
    }

    #[test]
    fn correct_outputs_satisfy_every_identity() {
        for layer in layers() {
            let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 7);
            let w = layer.random_weights(8);
            let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
            verify_block(&layer, &ifm, &w, &entries_of(&golden)).unwrap_or_else(|v| panic!("{}: {v}", layer.name()));
        }
    }

    #[test]
    fn a_single_flipped_word_is_detected() {
        for layer in layers() {
            let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 17);
            let w = layer.random_weights(18);
            let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
            let mut entries = entries_of(&golden);
            entries[3].3 ^= 1 << 5;
            let v = verify_block(&layer, &ifm, &w, &entries).expect_err(layer.name());
            assert_ne!(v.expected, v.actual);
        }
    }

    #[test]
    fn partial_blocks_verify_too() {
        // Blocks cover subsets of the OFM; the identities must hold over
        // any entry subset, not just whole layers.
        let layer = ConvLayer::pointwise("pw", 8, 6, 4, 4);
        let ifm = Tensor::random(8, 4, 4, 3);
        let w = layer.random_weights(4);
        let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
        let entries = entries_of(&golden);
        for chunk in entries.chunks(5) {
            verify_block(&layer, &ifm, &w, chunk).unwrap();
        }
        let dw = ConvLayer::depthwise("dw", 2, 9, 9, 3, 2, 1);
        let ifm = Tensor::random(2, 9, 9, 5);
        let w = dw.random_weights(6);
        let golden = reference::run_layer(&dw, &ifm, &w).unwrap();
        for chunk in entries_of(&golden).chunks(7) {
            verify_block(&dw, &ifm, &w, chunk).unwrap();
        }
    }

    #[test]
    fn pointwise_row_check_localizes_the_output_channel() {
        let layer = ConvLayer::pointwise("pw", 6, 5, 3, 3);
        let ifm = Tensor::random(6, 3, 3, 9);
        let w = layer.random_weights(10);
        let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
        let mut entries = entries_of(&golden);
        // Corrupt an output of channel 4.
        let idx = entries.iter().position(|e| e.0 == 4).unwrap();
        entries[idx].3 = entries[idx].3.wrapping_add(1);
        let v = verify_block(&layer, &ifm, &w, &entries).unwrap_err();
        assert_eq!(v.kind, CheckKind::RowChecksum);
        assert_eq!(v.lane, 4);
    }

    #[test]
    fn activated_layers_use_the_exact_element_path() {
        let layer = ConvLayer::depthwise("dw", 2, 8, 8, 3, 1, 1).with_activation(Activation::Relu);
        let ifm = Tensor::random(2, 8, 8, 11);
        let w = layer.random_weights(12);
        let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
        let mut entries = entries_of(&golden);
        verify_block(&layer, &ifm, &w, &entries).unwrap();
        entries[9].3 = entries[9].3.wrapping_add(2);
        let v = verify_block(&layer, &ifm, &w, &entries).unwrap_err();
        assert_eq!(v.kind, CheckKind::Element);
    }

    #[test]
    fn heal_restores_golden_values() {
        for layer in layers() {
            let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 21);
            let w = layer.random_weights(22);
            let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
            let mut entries = entries_of(&golden);
            entries[0].3 ^= 0x40;
            entries[5].3 = entries[5].3.wrapping_sub(3);
            heal_block(&layer, &ifm, &w, &mut entries);
            assert_eq!(entries, entries_of(&golden), "{}", layer.name());
            verify_block(&layer, &ifm, &w, &entries).unwrap();
        }
    }

    /// One layer per mapping (activated variants included), small enough
    /// to flip a word in every block.
    fn mapped_layers() -> Vec<(ConvLayer, MappingKind, ResolvedMapping)> {
        vec![
            (
                ConvLayer::pointwise("pw", 9, 10, 5, 6),
                MappingKind::Auto,
                ResolvedMapping::Pwc,
            ),
            (
                ConvLayer::pointwise("pw.1x1", 24, 9, 1, 1),
                MappingKind::Auto,
                ResolvedMapping::Pwc,
            ),
            (
                ConvLayer::depthwise("dw.s1", 3, 11, 9, 3, 1, 1),
                MappingKind::Auto,
                ResolvedMapping::DwcS1,
            ),
            (
                ConvLayer::depthwise("dw.s2", 2, 12, 12, 3, 2, 1),
                MappingKind::Auto,
                ResolvedMapping::DwcGeneral,
            ),
            (
                ConvLayer::depthwise("dw.k5", 2, 13, 13, 5, 1, 2),
                MappingKind::Auto,
                ResolvedMapping::DwcGeneral,
            ),
            (
                ConvLayer::depthwise("dw.mm", 2, 9, 7, 3, 1, 1),
                MappingKind::MatmulDwc,
                ResolvedMapping::MatmulDwc,
            ),
            (
                ConvLayer::depthwise("dw.mm.s2", 2, 10, 9, 3, 2, 1),
                MappingKind::MatmulDwc,
                ResolvedMapping::MatmulDwc,
            ),
            (
                ConvLayer::depthwise("dw.b", 10, 6, 6, 3, 1, 1),
                MappingKind::BatchedDwcS1,
                ResolvedMapping::BatchedDwcS1,
            ),
            (
                ConvLayer::pointwise("pw.relu", 6, 5, 4, 4).with_activation(Activation::Relu),
                MappingKind::Auto,
                ResolvedMapping::Pwc,
            ),
            (
                ConvLayer::depthwise("dw.leaky", 2, 8, 8, 3, 1, 1).with_activation(Activation::LeakyRelu { shift: 2 }),
                MappingKind::Auto,
                ResolvedMapping::DwcS1,
            ),
        ]
    }

    #[test]
    fn the_run_verifier_returns_the_entry_verifiers_violation_on_every_mapping() {
        // For one flipped word per block — and, separately, for two, so the
        // *order* identities are tried in matters — reading the block's
        // runs out of the tensor must fail exactly as the entry list does;
        // clean blocks must pass both; healing must restore golden bits.
        let spec = CgraSpec::np_cgra(4, 4);
        let mut scratch = AbftScratch::default();
        for (layer, kind, mapping) in mapped_layers() {
            let compiled = CompiledLayer::compile(&layer, &spec, kind).unwrap();
            assert_eq!(compiled.mapping(), mapping, "{}", layer.name());
            let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 31);
            let w = layer.random_weights(32);
            let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
            let blocks = compiled.surface().blocks().unwrap();
            for (i, block) in blocks.iter().enumerate() {
                let entries_of = |ofm: &Tensor| -> Vec<OfmEntry> {
                    compiled
                        .geometry(i)
                        .ofm_slots
                        .iter()
                        .map(|s| (s.c, s.y, s.x, ofm.get(s.c, s.y, s.x)))
                        .collect()
                };
                let tag = format!("{} block {i}", layer.name());
                verify_block(&layer, &ifm, &w, &entries_of(&golden)).unwrap_or_else(|v| panic!("{tag}: {v}"));
                verify_slots(&layer, &ifm, &w, &golden, &block.slots, &mut scratch).unwrap_or_else(|v| panic!("{tag}: {v}"));
                let n = block.slots.len();
                for flips in [vec![(i * 7 + 3) % n], vec![n - 1, (i * 5) % n]] {
                    let mut ofm = golden.clone();
                    for (j, &k) in flips.iter().enumerate() {
                        ofm.as_mut_slice()[block.slots.flat_index(k)] ^= 1 << (3 + 4 * j);
                    }
                    if ofm == golden {
                        continue; // the two flips landed on one word and cancelled
                    }
                    let by_entries = verify_block(&layer, &ifm, &w, &entries_of(&ofm)).expect_err(&tag);
                    let by_runs = verify_slots(&layer, &ifm, &w, &ofm, &block.slots, &mut scratch).expect_err(&tag);
                    assert_eq!(by_runs, by_entries, "{tag} flips {flips:?}");
                    // Other blocks' runs do not see the flip.
                    for (j, other) in blocks.iter().enumerate().filter(|(j, _)| *j != i) {
                        verify_slots(&layer, &ifm, &w, &ofm, &other.slots, &mut scratch)
                            .unwrap_or_else(|v| panic!("{tag} leaked into block {j}: {v}"));
                    }
                    heal_slots(&layer, &ifm, &w, &mut ofm, &block.slots);
                    assert_eq!(ofm, golden, "{tag}: healed output is golden");
                }
            }
        }
    }

    #[test]
    fn empty_entry_lists_are_trivially_valid() {
        let layer = ConvLayer::pointwise("pw", 4, 4, 2, 2);
        let ifm = Tensor::zeros(4, 2, 2);
        let w = layer.random_weights(1);
        verify_block(&layer, &ifm, &w, &[]).unwrap();
    }

    #[test]
    fn tensor_checksum_catches_flips_and_swaps() {
        let t = Tensor::random(3, 5, 7, 9);
        let base = tensor_checksum(&t);
        assert_eq!(base, tensor_checksum(&t.clone()), "checksum is a pure function");

        let mut flipped = t.clone();
        let v = flipped.get(1, 2, 3);
        flipped.set(1, 2, 3, v ^ 1);
        assert_ne!(base, tensor_checksum(&flipped), "a single bit flip must change the sum");

        // Transposing two unequal words changes the sum (a plain word-sum
        // would miss this; the positional mix does not).
        let mut swapped = t.clone();
        let (a, b) = (t.get(0, 0, 0), t.get(2, 4, 6));
        assert_ne!(a, b, "test fixture needs distinct words");
        swapped.set(0, 0, 0, b);
        swapped.set(2, 4, 6, a);
        assert_ne!(base, tensor_checksum(&swapped));

        // Same contents, different shape: the shape is part of the sum.
        let reshaped = Tensor::from_fn(5, 3, 7, |c, y, x| t.get(y, c, x));
        assert_ne!(base, tensor_checksum(&reshaped));
    }
}
