//! Channel-batched stride-1 DWC — the §5.4 "further optimization".
//!
//! The paper notes that its DWC flow "repeats processing 1 channel and
//! loading the data", which "takes more communication time than computation
//! time when the height and width of IFM are small", and proposes
//! "continuous processing of channel data" as future work. This module
//! implements it: one block carries **several channels'** H/V images
//! back-to-back in the banks, the Weight Buffer (Table 4: 64 kernel slots)
//! holds one kernel per channel, and the controller refills the GRF per
//! tile — so one DMA transaction (one 200-cycle latency) serves the whole
//! channel group instead of one per channel.
//!
//! On MobileNet V2's late stages (7×7 and 14×14 feature maps with hundreds
//! of channels) this turns DMA-bound layers compute-bound.

use npcgra_agu::{MemRequest, TileClock, TilePos};
use npcgra_arch::{CgraSpec, Instruction};
use npcgra_nn::{ConvKind, ConvLayer, Tensor, Word};

use crate::act;
use crate::dwc_s1::DwcS1Mapping;
use crate::layout;
use crate::program::{BlockGeometry, BlockProgram, StorePort, TileMapping};
use crate::pwc::MapError;
use crate::tiling::BlockCfg;

/// The batched tile schedule: the channel index rides in the tile-row
/// coordinate (`tid_r = ch · B_r + inner_tid_r`), and every request is
/// offset into that channel's segment of the bank images.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchedDwcS1Mapping {
    inner: DwcS1Mapping,
    b_r: usize,
    /// Per-channel H-bank segment length in words.
    h_stride: usize,
    /// Per-channel V-bank segment length in words.
    v_stride: usize,
}

impl BatchedDwcS1Mapping {
    /// Wrap the single-channel schedule with per-channel segment strides.
    #[must_use]
    pub fn new(inner: DwcS1Mapping, b_r: usize, h_stride: usize, v_stride: usize) -> Self {
        BatchedDwcS1Mapping {
            inner,
            b_r,
            h_stride,
            v_stride,
        }
    }

    /// Split the batched row coordinate into `(channel, inner position)`.
    fn split(&self, pos: TilePos) -> (usize, TilePos) {
        let ch = pos.tid_r / self.b_r;
        let inner = TilePos {
            tid_r: pos.tid_r % self.b_r,
            tid_c: pos.tid_c,
            b_r: self.b_r,
            b_c: pos.b_c,
        };
        (ch, inner)
    }
}

impl TileMapping for BatchedDwcS1Mapping {
    fn phase_len(&self, t_wrap: u64) -> Option<u64> {
        self.inner.phase_len(t_wrap)
    }

    fn tile_latency(&self) -> u64 {
        self.inner.tile_latency()
    }

    fn pe_instruction(&self, clock: TileClock, pos: TilePos, r: usize, c: usize) -> Instruction {
        let (_, inner) = self.split(pos);
        self.inner.pe_instruction(clock, inner, r, c)
    }

    fn h_request(&self, clock: TileClock, pos: TilePos, aid_r: usize) -> Option<MemRequest> {
        let (ch, inner) = self.split(pos);
        let mut req = self.inner.h_request(clock, inner, aid_r)?;
        req.offset += ch * self.h_stride;
        Some(req)
    }

    fn v_request(&self, clock: TileClock, pos: TilePos, aid_c: usize) -> Option<MemRequest> {
        let (ch, inner) = self.split(pos);
        let mut req = self.inner.v_request(clock, inner, aid_c)?;
        req.offset += ch * self.v_stride;
        Some(req)
    }

    fn grf_index(&self, clock: TileClock) -> Option<usize> {
        self.inner.grf_index(clock)
    }

    fn grf_slot(&self, pos: TilePos) -> usize {
        self.split(pos).0
    }

    fn store_port(&self, clock: TileClock) -> Option<StorePort> {
        self.inner.store_port(clock)
    }
}

/// A stride-1 depthwise layer with channels batched per block.
///
/// # Example
///
/// ```
/// use npcgra_arch::CgraSpec;
/// use npcgra_nn::ConvLayer;
/// use npcgra_kernels::dwc_batched::DwcS1BatchedLayerMap;
///
/// // A late MobileNet-V2 stage: tiny spatial dims, many channels.
/// let layer = ConvLayer::depthwise("s7.dw", 960, 7, 7, 3, 1, 1);
/// let map = DwcS1BatchedLayerMap::new(&layer, &CgraSpec::table4()).unwrap();
/// assert!(map.channels_per_block() > 1, "batching should engage");
/// ```
#[derive(Debug, Clone)]
pub struct DwcS1BatchedLayerMap {
    layer: ConvLayer,
    spec: CgraSpec,
    cfg: BlockCfg,
    cb: usize,
    blocks_h: usize,
    blocks_w: usize,
    h_stride: usize,
    v_stride: usize,
    addr_ofm: usize,
}

impl DwcS1BatchedLayerMap {
    /// Plan the layer, choosing the channel batch to fill local memory (up
    /// to the Weight Buffer's 64 slots).
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] if the layer is not stride-1 depthwise or the
    /// kernel exceeds the GRF.
    pub fn new(layer: &ConvLayer, spec: &CgraSpec) -> Result<Self, MapError> {
        if layer.kind() != ConvKind::Depthwise || layer.s() != 1 {
            return Err(MapError::new(format!("{} is not a stride-1 depthwise layer", layer.name())));
        }
        let k = layer.k();
        if k * k >= npcgra_arch::grf::GRF_WORDS {
            return Err(MapError::new(format!("K = {k} kernel does not fit the GRF")));
        }
        let cfg = BlockCfg::choose_dwc(spec, k, 1, layer.out_h(), layer.out_w());
        let addr_ofm = layout::dwc_s1_addr_ofm(cfg, spec.rows, spec.cols, k);
        // Per-channel segment: IFM rows + the OFM region.
        let h_stride = addr_ofm + cfg.b_r * cfg.b_c * spec.cols;
        let v_stride = (cfg.b_r * (k - 1) * cfg.b_c).max(1);

        let h_budget = BlockCfg::hmem_words_per_bank(spec);
        let v_budget = BlockCfg::vmem_words_per_bank(spec);
        let cb = (h_budget / h_stride)
            .min(v_budget / v_stride)
            .clamp(1, 64) // Weight Buffer capacity (Table 4)
            .min(layer.in_channels());

        let blocks_h = BlockCfg::blocks_to_cover(layer.out_h(), cfg.b_r * spec.rows);
        let blocks_w = BlockCfg::blocks_to_cover(layer.out_w(), cfg.b_c * spec.cols);
        Ok(DwcS1BatchedLayerMap {
            layer: layer.clone(),
            spec: *spec,
            cfg,
            cb,
            blocks_h,
            blocks_w,
            h_stride,
            v_stride,
            addr_ofm,
        })
    }

    /// Channels packed per block.
    #[must_use]
    pub fn channels_per_block(&self) -> usize {
        self.cb
    }

    /// Blocks in the whole layer.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.layer.in_channels().div_ceil(self.cb) * self.blocks_h * self.blocks_w
    }

    /// Compute cycles per block: `cb` channels × tiles × tile latency.
    #[must_use]
    pub fn block_compute_cycles(&self) -> u64 {
        (self.cb * self.cfg.b_r * self.cfg.b_c) as u64 * self.mapping().tile_latency()
    }

    /// Words DMA moves in per block.
    #[must_use]
    pub fn block_input_words(&self) -> u64 {
        let k = self.layer.k();
        let block_w = self.cfg.b_c * self.spec.cols + k - 1;
        let input_rows = self.cfg.b_r * self.spec.rows + k - 1;
        let v_entries = self.cfg.b_r * (k - 1) * self.cfg.b_c * self.spec.cols;
        (self.cb * (input_rows * block_w + v_entries + k * k)) as u64
    }

    /// Words DMA moves out per block.
    #[must_use]
    pub fn block_output_words(&self) -> u64 {
        (self.cb * self.cfg.b_r * self.spec.rows * self.cfg.b_c * self.spec.cols) as u64
    }

    /// The batched tile schedule every block of the layer runs.
    fn mapping(&self) -> BatchedDwcS1Mapping {
        let inner = DwcS1Mapping::new(self.layer.k(), &self.spec, self.addr_ofm).with_activation(self.layer.activation());
        BatchedDwcS1Mapping::new(inner, self.cfg.b_r, self.h_stride, self.v_stride)
    }

    /// Block `idx`'s channels and output origin `(channels, r0, c0)`. The
    /// last group may be short.
    fn origin(&self, idx: usize) -> (std::ops::Range<usize>, usize, usize) {
        assert!(idx < self.num_blocks(), "block {idx} out of range");
        let per_grp = self.blocks_h * self.blocks_w;
        let ch0 = idx / per_grp * self.cb;
        let rb = (idx % per_grp) / self.blocks_w;
        let cb_idx = idx % self.blocks_w;
        (
            ch0..(ch0 + self.cb).min(self.layer.in_channels()),
            rb * self.cfg.b_r * self.spec.rows,
            cb_idx * self.cfg.b_c * self.spec.cols,
        )
    }

    /// Block `idx`'s data-independent geometry: label, tiles, tile latency
    /// and OFM extraction slots (channel by channel, each in its own
    /// segment of the bank images).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_blocks()`.
    #[must_use]
    pub fn geometry(&self, idx: usize) -> BlockGeometry {
        let (channels, r0, c0) = self.origin(idx);
        let ch0 = channels.start;
        let mut ofm_slots = Vec::new();
        for ch in channels {
            let segment = (ch - ch0) * self.h_stride;
            ofm_slots.extend(
                layout::dwc_ofm_slots(
                    ch,
                    r0,
                    c0,
                    self.cfg,
                    self.spec.rows,
                    self.spec.cols,
                    self.layer.out_h(),
                    self.layer.out_w(),
                    self.addr_ofm,
                )
                .into_iter()
                .map(|s| layout::OfmSlot {
                    offset: s.offset + segment,
                    ..s
                }),
            );
        }
        BlockGeometry {
            label: format!("{}[batched ch={ch0}+{},r={r0},c={c0}]", self.layer.name(), self.cb),
            tiles: TilePos::first(self.cb * self.cfg.b_r, self.cfg.b_c),
            tile_latency: self.mapping().tile_latency(),
            ofm_slots,
        }
    }

    /// Materialize block `idx` against the padded IFM and `(N_i, K, K)`
    /// weights.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_blocks()`.
    #[must_use]
    pub fn materialize(&self, idx: usize, padded: &Tensor, weights: &Tensor) -> BlockProgram {
        let (channels, r0, c0) = self.origin(idx);
        let geometry = self.geometry(idx);
        let k = self.layer.k();

        // Concatenate per-channel images at the channel stride. The last
        // group may be short; its tail segments stay zero (their tiles run
        // but produce no extracted outputs).
        let mut h_banks = vec![vec![0 as Word; self.cb * self.h_stride]; self.spec.rows];
        let mut v_banks = vec![vec![0 as Word; self.cb * self.v_stride]; self.spec.cols];
        let mut weight_buffer = Vec::with_capacity(self.cb);
        for (slot, ch) in channels.enumerate() {
            let (h, addr_ofm) = layout::dwc_s1_h_image(padded, ch, r0, c0, self.cfg, self.spec.rows, self.spec.cols, k);
            debug_assert_eq!(addr_ofm, self.addr_ofm);
            for (bank, image) in h.into_iter().enumerate() {
                let base = slot * self.h_stride;
                h_banks[bank][base..base + image.len()].copy_from_slice(&image);
            }
            let v = layout::dwc_s1_v_image(padded, ch, r0, c0, self.cfg, self.spec.rows, self.spec.cols, k);
            for (bank, image) in v.into_iter().enumerate() {
                let base = slot * self.v_stride;
                v_banks[bank][base..base + image.len()].copy_from_slice(&image);
            }
            let mut kernel = layout::dwc_grf_image(weights, ch, k);
            if let Some(c) = act::grf_constant(self.layer.activation()) {
                kernel.push(c);
            }
            weight_buffer.push(kernel);
        }
        // Pad the Weight Buffer for the short tail group (tiles of absent
        // channels still index a slot).
        while weight_buffer.len() < self.cb {
            weight_buffer.push(vec![0; k * k]);
        }

        BlockProgram {
            label: geometry.label,
            h_banks,
            v_banks,
            grf: Vec::new(),
            weight_buffer,
            tiles: geometry.tiles,
            mapping: Box::new(self.mapping()),
            ofm_slots: geometry.ofm_slots,
            dma_in_words: self.block_input_words(),
            ofm_words: self.block_output_words(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_engages_on_small_spatial_layers() {
        let layer = ConvLayer::depthwise("dw", 960, 7, 7, 3, 1, 1);
        let map = DwcS1BatchedLayerMap::new(&layer, &CgraSpec::table4()).unwrap();
        assert!(map.channels_per_block() >= 8, "cb = {}", map.channels_per_block());
        assert!(map.num_blocks() < 960);
    }

    #[test]
    fn batching_respects_weight_buffer_capacity() {
        let layer = ConvLayer::depthwise("dw", 4096, 4, 4, 3, 1, 1);
        let map = DwcS1BatchedLayerMap::new(&layer, &CgraSpec::table4()).unwrap();
        assert!(map.channels_per_block() <= 64);
    }

    #[test]
    fn rejects_stride_2() {
        let layer = ConvLayer::depthwise("dw", 8, 8, 8, 3, 2, 1);
        assert!(DwcS1BatchedLayerMap::new(&layer, &CgraSpec::table4()).is_err());
    }

    #[test]
    fn fewer_dma_transactions_than_unbatched() {
        let spec = CgraSpec::table4();
        let layer = ConvLayer::depthwise("dw", 384, 14, 14, 3, 1, 1);
        let batched = DwcS1BatchedLayerMap::new(&layer, &spec).unwrap();
        let plain = crate::dwc_s1::DwcS1LayerMap::new(&layer, &spec).unwrap();
        assert!(
            batched.num_blocks() * 4 <= plain.num_blocks(),
            "batched {} vs plain {}",
            batched.num_blocks(),
            plain.num_blocks()
        );
    }
}
