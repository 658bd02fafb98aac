//! The block surface: everything about a compiled program's blocks that no
//! input can change.
//!
//! A layer map's block geometry is a pure function of (layer, mapping,
//! [`CgraSpec`](npcgra_arch::CgraSpec)): which OFM words block `i` extracts
//! and in what order, its label, its tile count and tile latency. The
//! cycle-accurate tier rediscovers all of it per request by materializing
//! the block; the fast tier reads it from a [`BlockSurface`] that
//! [`CompiledLayer`](crate::CompiledLayer) builds once, on first use, from
//! the same `geometry` the layer maps materialize from.
//!
//! Every block of the five mappings extracts a *product* of a channel range
//! and a few rows of contiguous pixels, walked either channel by channel
//! (the depthwise family) or pixel by pixel with the channels innermost
//! (pointwise). [`BlockSlots`] stores exactly that — a handful of integers
//! per block — and hands the words back as strided [`Run`]s over the flat
//! CHW index *in `ofm_slots` order*, so memory is O(blocks), never
//! O(words). The derivation from the slot list is generic and checked by
//! replay: a slot list that is not such a product, and a set of blocks
//! whose runs do not cover every OFM word exactly once, leave a defect the
//! surface reports as a typed error instead of a wrong tensor.

use npcgra_kernels::layout::OfmSlot;
use npcgra_kernels::BlockGeometry;

use crate::error::{SimCause, SimError};
use crate::integrity::PixelSet;

/// A strided run of OFM words over the flat CHW index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Flat index of the first word.
    pub start: usize,
    /// Distance between consecutive words.
    pub stride: usize,
    /// Words in the run.
    pub len: usize,
}

impl Run {
    /// The flat indices the run visits, in order.
    pub fn indices(self) -> impl Iterator<Item = usize> {
        (0..self.len).map(move |j| self.start + j * self.stride)
    }
}

/// How a block's `ofm_slots` walk its channel-range × pixel-rows product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotOrder {
    /// Channel by channel, each a row-major walk of the pixel rows (the
    /// depthwise mappings): runs are pixel rows, stride 1.
    ChannelMajor,
    /// Pixel by pixel, the channels innermost (pointwise): runs are channel
    /// columns, stride one plane.
    PixelMajor,
}

/// The OFM words one block extracts: channels `c0..c0+channels` × `rows`
/// rows of `row_len` contiguous in-plane pixels, row `a` starting at pixel
/// `p0 + a·row_stride` (a pixel is `y·W + x`; a matmul-DWC block's single
/// row may span several image rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSlots {
    c0: u32,
    channels: u32,
    p0: u32,
    rows: u32,
    row_stride: u32,
    row_len: u32,
    /// Words per channel plane (`H·W`) and per image row (`W`) of the OFM.
    plane: u32,
    width: u32,
    order: SlotOrder,
}

impl BlockSlots {
    /// Derive the product description from a block's slot list over an
    /// OFM of `shape`, and prove it by replaying it against the list.
    fn from_slots(slots: &[OfmSlot], shape: (usize, usize, usize)) -> Result<Self, String> {
        let (c, h, w) = shape;
        let narrow = |v: usize| u32::try_from(v).map_err(|_| format!("{v} does not fit the surface's 32-bit geometry"));
        narrow(c * h * w)?; // every flat index fits
        let (plane, width) = (narrow(h * w)?, narrow(w)?);
        let empty = BlockSlots {
            c0: 0,
            channels: 0,
            p0: 0,
            rows: 0,
            row_stride: 0,
            row_len: 0,
            plane,
            width,
            order: SlotOrder::ChannelMajor,
        };
        let Some(first) = slots.first() else {
            return Ok(empty);
        };
        if let Some(s) = slots.iter().find(|s| s.c >= c || s.y >= h || s.x >= w) {
            return Err(format!("slot ({},{},{}) lies outside the {c}x{h}x{w} OFM", s.c, s.y, s.x));
        }
        let pixel = |s: &OfmSlot| s.y * w + s.x;
        // A block that does not start on its lowest channel fails the replay.
        let channels = slots.iter().map(|s| s.c).max().unwrap_or(first.c) + 1 - first.c;
        if !slots.len().is_multiple_of(channels) {
            return Err(format!("{} slots do not divide over {channels} channels", slots.len()));
        }
        let pixels = slots.len() / channels;
        let order = if channels > 1 && slots[1].c != first.c {
            SlotOrder::PixelMajor
        } else {
            SlotOrder::ChannelMajor
        };
        // The pixel walk of the first channel, in slot order.
        let walk = |i: usize| match order {
            SlotOrder::ChannelMajor => pixel(&slots[i]),
            SlotOrder::PixelMajor => pixel(&slots[i * channels]),
        };
        let row_len = (1..pixels).find(|&i| walk(i) != walk(0) + i).unwrap_or(pixels);
        if !pixels.is_multiple_of(row_len) {
            return Err(format!("{pixels} pixels do not divide into rows of {row_len}"));
        }
        let rows = pixels / row_len;
        let row_stride = if rows > 1 { walk(row_len).saturating_sub(walk(0)) } else { 0 };
        if rows > 1 && row_stride < row_len {
            return Err(format!("pixel rows {row_stride} apart overlap at length {row_len}"));
        }
        let derived = BlockSlots {
            c0: narrow(first.c)?,
            channels: narrow(channels)?,
            p0: narrow(pixel(first))?,
            rows: narrow(rows)?,
            row_stride: narrow(row_stride)?,
            row_len: narrow(row_len)?,
            order,
            ..empty
        };
        // Replay: the description must yield the list, word for word.
        let listed = slots.iter().map(|s| (s.c * h + s.y) * w + s.x);
        if !derived.runs().flat_map(Run::indices).eq(listed) {
            return Err("slots are not a channel-range x pixel-rows product in a known order".to_string());
        }
        Ok(derived)
    }

    /// Words the block extracts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.channels as usize * self.pixels()
    }

    /// Whether the block extracts nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pixels per channel.
    fn pixels(&self) -> usize {
        self.rows as usize * self.row_len as usize
    }

    /// The output channels the block covers.
    #[must_use]
    pub fn channels(&self) -> std::ops::Range<usize> {
        self.c0 as usize..(self.c0 + self.channels) as usize
    }

    /// The block's pixel rows as `(first in-plane pixel, length)`, ascending.
    pub fn pixel_rows(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.rows as usize).map(move |a| (self.p0 as usize + a * self.row_stride as usize, self.row_len as usize))
    }

    /// The block's words as strided runs over the flat CHW index, in
    /// `ofm_slots` order.
    pub fn runs(&self) -> impl Iterator<Item = Run> + '_ {
        let plane = self.plane as usize;
        let (outer, inner) = match self.order {
            SlotOrder::ChannelMajor => (self.channels as usize, self.rows as usize),
            SlotOrder::PixelMajor => (self.rows as usize, self.row_len as usize),
        };
        (0..outer * inner).map(move |i| {
            let (o, j) = (i / inner, i % inner);
            match self.order {
                SlotOrder::ChannelMajor => Run {
                    start: (self.c0 as usize + o) * plane + self.p0 as usize + j * self.row_stride as usize,
                    stride: 1,
                    len: self.row_len as usize,
                },
                SlotOrder::PixelMajor => Run {
                    start: self.c0 as usize * plane + self.p0 as usize + o * self.row_stride as usize + j,
                    stride: plane,
                    len: self.channels as usize,
                },
            }
        })
    }

    /// Flat CHW index of the block's `k`-th slot.
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    #[must_use]
    pub fn flat_index(&self, k: usize) -> usize {
        assert!(k < self.len(), "slot {k} of {}", self.len());
        let (c, pixel) = match self.order {
            SlotOrder::ChannelMajor => (k / self.pixels(), k % self.pixels()),
            SlotOrder::PixelMajor => (k % self.channels as usize, k / self.channels as usize),
        };
        let (row, x) = (pixel / self.row_len as usize, pixel % self.row_len as usize);
        (self.c0 as usize + c) * self.plane as usize + self.p0 as usize + row * self.row_stride as usize + x
    }

    /// `(c, y, x)` of a flat CHW index of this block's OFM.
    #[must_use]
    pub fn coords(&self, flat: usize) -> (usize, usize, usize) {
        let (plane, width) = (self.plane as usize, self.width as usize);
        (flat / plane, flat % plane / width, flat % width)
    }
}

impl PixelSet for BlockSlots {
    fn for_each_rect(&self, mut f: impl FnMut(usize, usize, usize, usize)) {
        let width = self.width as usize;
        let (x, len) = (self.p0 as usize % width, self.row_len as usize);
        if x + len <= width && (self.rows == 1 || self.row_stride == self.width) {
            // The usual block: its pixel rows stack into one rectangle.
            return f(self.p0 as usize / width, self.rows as usize, x, len);
        }
        // A pixel row that crosses image rows (the matmul-DWC mapping's
        // blocks are flat pixel ranges): head, whole rows, tail.
        for (p, len) in self.pixel_rows() {
            let (y, x) = (p / width, p % width);
            let head = len.min((width - x) % width);
            let whole = (len - head) / width;
            let tail = len - head - whole * width;
            if head > 0 {
                f(y, 1, x, head);
            }
            let y = y + usize::from(head > 0);
            if whole > 0 {
                f(y, whole, 0, width);
            }
            if tail > 0 {
                f(y + whole, 1, 0, tail);
            }
        }
    }
}

/// One block of the surface: what [`BlockProgram`](npcgra_kernels::BlockProgram)
/// carries besides memory images and its label (which the surface keeps,
/// see [`BlockSurface::label`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurfaceBlock {
    tiles: u32,
    tile_latency: u32,
    /// The OFM words the block extracts.
    pub slots: BlockSlots,
}

impl SurfaceBlock {
    /// Tiles in the block.
    #[must_use]
    pub fn tiles(&self) -> usize {
        self.tiles as usize
    }

    /// Latency of one tile of the block's schedule.
    #[must_use]
    pub fn tile_latency(&self) -> u64 {
        u64::from(self.tile_latency)
    }

    /// Fault-free compute cycles of the block: tiles × tile latency.
    #[must_use]
    pub fn compute_cycles(&self) -> u64 {
        u64::from(self.tiles) * u64::from(self.tile_latency)
    }
}

/// The input-independent face of a compiled program: one [`SurfaceBlock`]
/// and one label per block, and whether the blocks' runs partition the OFM.
#[derive(Debug)]
pub struct BlockSurface {
    blocks: Vec<SurfaceBlock>,
    /// Every block's label back to back (one allocation, not one per
    /// block), block `i`'s ending at `label_ends[i]`.
    labels: String,
    label_ends: Vec<u32>,
    /// The typed error every run must become if the surface cannot be
    /// trusted: a slot list that is no product, or blocks that do not
    /// extract every OFM word exactly once.
    defect: Option<SimError>,
}

impl BlockSurface {
    /// Build the surface of a program whose OFM is `shape` from its blocks'
    /// geometries, and prove the blocks extract every OFM word exactly
    /// once.
    pub(crate) fn build(shape: (usize, usize, usize), geometries: impl Iterator<Item = BlockGeometry>) -> Self {
        let words = shape.0 * shape.1 * shape.2;
        let mut covered = vec![0u64; words.div_ceil(64)];
        let mut surface = BlockSurface {
            blocks: Vec::new(),
            labels: String::new(),
            label_ends: Vec::new(),
            defect: None,
        };
        let defect = |label: &str, why: String| SimError::new(label, 0, 0, SimCause::Map(format!("block surface: {why}")));
        let narrow = |v: u64| u32::try_from(v).map_err(|_| format!("{v} does not fit the surface's 32-bit geometry"));
        for g in geometries {
            let described = BlockSlots::from_slots(&g.ofm_slots, shape)
                .and_then(|slots| Ok((slots, narrow(g.tiles.tiles() as u64)?, narrow(g.tile_latency)?)));
            let (slots, tiles, tile_latency) = described.unwrap_or_else(|why| {
                surface.defect.get_or_insert_with(|| defect(&g.label, why));
                (
                    BlockSlots::from_slots(&[], shape).expect("an empty block always derives"),
                    0,
                    0,
                )
            });
            for word in slots.runs().flat_map(Run::indices) {
                let (cell, bit) = (&mut covered[word / 64], 1u64 << (word % 64));
                if *cell & bit != 0 {
                    surface
                        .defect
                        .get_or_insert_with(|| defect(&g.label, format!("OFM word {word} is extracted twice")));
                }
                *cell |= bit;
            }
            surface.blocks.push(SurfaceBlock {
                tiles,
                tile_latency,
                slots,
            });
            surface.labels.push_str(&g.label);
            surface
                .label_ends
                .push(u32::try_from(surface.labels.len()).unwrap_or(u32::MAX));
        }
        if let Some(missing) = (0..words).find(|w| covered[w / 64] & (1 << (w % 64)) == 0) {
            surface
                .defect
                .get_or_insert_with(|| defect("layer", format!("OFM word {missing} is extracted by no block")));
        }
        // Kept for the program's life: give back the growth slack.
        surface.blocks.shrink_to_fit();
        surface.labels.shrink_to_fit();
        surface.label_ends.shrink_to_fit();
        surface
    }

    /// The blocks, in execution order — or the typed error a surface whose
    /// partition proof failed must turn every run into.
    ///
    /// # Errors
    ///
    /// Returns [`SimCause::Map`] naming the defect.
    pub fn blocks(&self) -> Result<&[SurfaceBlock], SimError> {
        match &self.defect {
            None => Ok(&self.blocks),
            Some(defect) => Err(defect.clone()),
        }
    }

    /// Block `i`'s human-readable tag, for error messages.
    ///
    /// # Panics
    ///
    /// Panics if the surface has no block `i`.
    #[must_use]
    pub fn label(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |prev| self.label_ends[prev] as usize);
        &self.labels[start..self.label_ends[i] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npcgra_agu::TilePos;

    fn slot(c: usize, y: usize, x: usize) -> OfmSlot {
        OfmSlot {
            bank: 0,
            offset: 0,
            c,
            y,
            x,
        }
    }

    fn geometry(slots: Vec<OfmSlot>) -> BlockGeometry {
        BlockGeometry {
            label: "b".to_string(),
            tiles: TilePos::first(1, 1),
            tile_latency: 5,
            ofm_slots: slots,
        }
    }

    fn expand(slots: &BlockSlots) -> Vec<usize> {
        slots.runs().flat_map(Run::indices).collect()
    }

    #[test]
    fn both_slot_orders_derive_and_replay() {
        // Channel-major: 2 channels x (2 rows of 3) in a 3x4x5 OFM.
        let mut cm = Vec::new();
        for c in 1..3 {
            for y in 1..3 {
                for x in 2..5 {
                    cm.push(slot(c, y, x));
                }
            }
        }
        let s = BlockSlots::from_slots(&cm, (3, 4, 5)).unwrap();
        assert_eq!(s.channels(), 1..3);
        assert_eq!(s.pixel_rows().collect::<Vec<_>>(), vec![(7, 3), (12, 3)]);
        assert_eq!(s.runs().count(), 4, "one run per channel row");
        assert_eq!(expand(&s), cm.iter().map(|s| (s.c * 4 + s.y) * 5 + s.x).collect::<Vec<_>>());
        // Pixel-major: 3 pixels x 2 channels.
        let mut pm = Vec::new();
        for x in 0..3 {
            for c in 0..2 {
                pm.push(slot(c, 3, x));
            }
        }
        let s = BlockSlots::from_slots(&pm, (3, 4, 5)).unwrap();
        assert_eq!(
            s.runs().next().unwrap(),
            Run {
                start: 15,
                stride: 20,
                len: 2
            }
        );
        for (k, want) in pm.iter().enumerate() {
            let flat = s.flat_index(k);
            assert_eq!(s.coords(flat), (want.c, want.y, want.x), "slot {k}");
        }
    }

    #[test]
    fn a_flat_pixel_range_splits_at_image_rows() {
        // Matmul-DWC style: pixels 3..9 of a 4-wide plane.
        let slots: Vec<OfmSlot> = (3..9).map(|p| slot(0, p / 4, p % 4)).collect();
        let s = BlockSlots::from_slots(&slots, (1, 3, 4)).unwrap();
        assert_eq!(
            s.runs().collect::<Vec<_>>(),
            vec![Run {
                start: 3,
                stride: 1,
                len: 6
            }]
        );
        let mut rects = Vec::new();
        s.for_each_rect(|y, rows, x, len| rects.push((y, rows, x, len)));
        assert_eq!(rects, vec![(0, 1, 3, 1), (1, 1, 0, 4), (2, 1, 0, 1)]);
        // Rows of a rectangle stay one rectangle.
        let slots: Vec<OfmSlot> = (1..3).flat_map(|y| (1..3).map(move |x| slot(0, y, x))).collect();
        let s = BlockSlots::from_slots(&slots, (1, 3, 4)).unwrap();
        let mut rects = Vec::new();
        s.for_each_rect(|y, rows, x, len| rects.push((y, rows, x, len)));
        assert_eq!(rects, vec![(1, 2, 1, 2)]);
    }

    #[test]
    fn a_slot_list_that_is_no_product_is_a_defect() {
        // Pixels 0, 1 and 3 of a 2-wide plane: neither rows nor a range.
        let slots = vec![slot(0, 0, 0), slot(0, 0, 1), slot(0, 1, 1)];
        assert!(BlockSlots::from_slots(&slots, (1, 2, 2)).is_err());
        let surface = BlockSurface::build((1, 2, 2), [geometry(slots)].into_iter());
        let err = surface.blocks().unwrap_err();
        assert!(matches!(err.cause, SimCause::Map(_)), "{err}");
    }

    #[test]
    fn overlaps_and_gaps_fail_the_partition_proof() {
        let full: Vec<OfmSlot> = (0..4).map(|p| slot(0, p / 2, p % 2)).collect();
        let whole = BlockSurface::build((1, 2, 2), [geometry(full.clone())].into_iter());
        assert_eq!(whole.blocks().unwrap().len(), 1);
        assert_eq!(whole.blocks().unwrap()[0].compute_cycles(), 5);

        let twice = BlockSurface::build((1, 2, 2), [geometry(full.clone()), geometry(full[..2].to_vec())].into_iter());
        let err = twice.blocks().unwrap_err();
        assert!(err.to_string().contains("extracted twice"), "{err}");

        let gap = BlockSurface::build((1, 2, 2), [geometry(full[..2].to_vec())].into_iter());
        let err = gap.blocks().unwrap_err();
        assert!(err.to_string().contains("by no block"), "{err}");

        let outside = BlockSurface::build((1, 2, 2), [geometry(vec![slot(0, 2, 0)])].into_iter());
        assert!(outside.blocks().is_err());
    }
}
