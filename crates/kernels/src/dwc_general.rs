//! The DWC mapping for arbitrary stride (§4.1, Fig. 5).
//!
//! One channel is parallelized across the array per tile: H-bus `r` streams
//! input row `r·S + t_wrap` of the tile, every PE in the row MACs when the
//! streamed position falls in its kernel window, and V-bus `c` supplies the
//! (column-dependent) weight tap. The whole schedule repeats per channel
//! (`N_i` term of Table 3).

use npcgra_agu::{DwcGeneralAgu, MemRequest, TileClock, TilePos};
use npcgra_arch::{CgraSpec, Instruction, MuxSel};
use npcgra_nn::{Activation, ConvKind, ConvLayer, Tensor};

use crate::act;
use crate::layout;
use crate::program::{BlockGeometry, BlockProgram, StorePort, TileMapping};
use crate::pwc::MapError;
use crate::tiling::BlockCfg;

/// Zero-pad a layer's IFM into the padded-image coordinates the DWC layouts
/// use.
#[must_use]
pub fn padded_ifm(layer: &ConvLayer, ifm: &Tensor) -> Tensor {
    ifm.zero_padded(layer.pad())
}

/// The per-tile schedule of the general-stride DWC mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DwcGeneralMapping {
    agu: DwcGeneralAgu,
    act: Activation,
}

impl DwcGeneralMapping {
    /// Build the tile schedule for kernel `k`, stride `s` on `spec`, with
    /// the H-MEM OFM region at `addr_ofm`.
    #[must_use]
    pub fn new(k: usize, s: usize, spec: &CgraSpec, addr_ofm: usize) -> Self {
        DwcGeneralMapping {
            agu: DwcGeneralAgu {
                k,
                s,
                nr: spec.rows,
                nc: spec.cols,
                addr_ifm: 0,
                addr_ofm,
                addr_w: 0,
            },
            act: Activation::None,
        }
    }

    /// Builder-style: fuse an activation into the tile epilogue.
    #[must_use]
    pub fn with_activation(mut self, act: Activation) -> Self {
        self.act = act;
        self
    }

    /// The underlying AGU configuration.
    #[must_use]
    pub fn agu(&self) -> DwcGeneralAgu {
        self.agu
    }

    fn ep(&self) -> usize {
        act::epilogue_len(self.act) as usize
    }

    fn store_step(&self, clock: TileClock) -> Option<usize> {
        let t = clock.t_wcycle as usize;
        (clock.t_wrap as usize == self.agu.k && t >= self.ep() && t < self.ep() + self.agu.nc).then(|| t - self.ep())
    }

    fn agu_store_clock(&self, clock: TileClock, j: usize) -> TileClock {
        TileClock {
            t_cycle: clock.t_cycle,
            t_wrap: self.agu.k as u64,
            t_wcycle: (1 + j) as u64,
        }
    }
}

impl TileMapping for DwcGeneralMapping {
    fn phase_len(&self, t_wrap: u64) -> Option<u64> {
        if (t_wrap as usize) < self.agu.k {
            self.agu.phase_len(t_wrap)
        } else if t_wrap as usize == self.agu.k {
            Some((self.ep() + self.agu.nc) as u64)
        } else {
            None
        }
    }

    fn tile_latency(&self) -> u64 {
        (self.agu.k * self.agu.row_stream_len() + self.ep() + self.agu.nc) as u64
    }

    fn pe_instruction(&self, clock: TileClock, _pos: TilePos, _r: usize, c: usize) -> Instruction {
        if clock.t_wrap as usize == self.agu.k {
            let t = clock.t_wcycle as usize;
            if t < self.ep() {
                return act::epilogue_instruction(self.act, t as u64);
            }
            return Instruction::nop();
        }
        match self.agu.active_tap(clock, c) {
            Some(kx) if clock.t_wrap == 0 && kx == 0 => Instruction::mul(MuxSel::HBus, MuxSel::VBus),
            Some(_) => Instruction::mac(MuxSel::HBus, MuxSel::VBus),
            None => Instruction::nop(),
        }
    }

    fn h_request(&self, clock: TileClock, pos: TilePos, aid_r: usize) -> Option<MemRequest> {
        if (clock.t_wrap as usize) < self.agu.k {
            self.agu.h_request(clock, pos, aid_r)
        } else {
            let j = self.store_step(clock)?;
            self.agu.h_request(self.agu_store_clock(clock, j), pos, aid_r)
        }
    }

    fn v_request(&self, clock: TileClock, pos: TilePos, aid_c: usize) -> Option<MemRequest> {
        ((clock.t_wrap as usize) < self.agu.k)
            .then(|| self.agu.v_request(clock, pos, aid_c))
            .flatten()
    }

    fn grf_index(&self, clock: TileClock) -> Option<usize> {
        let step = act::grf_read_step(self.act)?;
        (clock.t_wrap as usize == self.agu.k && clock.t_wcycle == step).then_some(0)
    }

    fn store_port(&self, clock: TileClock) -> Option<StorePort> {
        self.store_step(clock).map(|column| StorePort { column })
    }
}

/// A whole depthwise layer mapped with the general-stride schedule.
///
/// # Example
///
/// ```
/// use npcgra_arch::CgraSpec;
/// use npcgra_nn::ConvLayer;
/// use npcgra_kernels::dwc_general::DwcGeneralLayerMap;
///
/// let layer = ConvLayer::depthwise("dw2", 64, 112, 112, 3, 2, 1);
/// let map = DwcGeneralLayerMap::new(&layer, &CgraSpec::np_cgra(4, 4)).unwrap();
/// assert_eq!(map.num_blocks() % 64, 0); // one block set per channel
/// ```
#[derive(Debug, Clone)]
pub struct DwcGeneralLayerMap {
    layer: ConvLayer,
    spec: CgraSpec,
    cfg: BlockCfg,
    blocks_h: usize,
    blocks_w: usize,
}

impl DwcGeneralLayerMap {
    /// Plan the layer.
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] if the layer is not depthwise.
    pub fn new(layer: &ConvLayer, spec: &CgraSpec) -> Result<Self, MapError> {
        if layer.kind() != ConvKind::Depthwise {
            return Err(MapError::new(format!("{} is not depthwise", layer.name())));
        }
        let cfg = BlockCfg::choose_dwc(spec, layer.k(), layer.s(), layer.out_h(), layer.out_w());
        let blocks_h = BlockCfg::blocks_to_cover(layer.out_h(), cfg.b_r * spec.rows);
        let blocks_w = BlockCfg::blocks_to_cover(layer.out_w(), cfg.b_c * spec.cols);
        Ok(DwcGeneralLayerMap {
            layer: layer.clone(),
            spec: *spec,
            cfg,
            blocks_h,
            blocks_w,
        })
    }

    /// Chosen block geometry.
    #[must_use]
    pub fn cfg(&self) -> BlockCfg {
        self.cfg
    }

    /// Blocks in the whole layer: channels × row-chunks × col-chunks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.layer.in_channels() * self.blocks_h * self.blocks_w
    }

    /// Compute cycles of any one block.
    #[must_use]
    pub fn block_compute_cycles(&self) -> u64 {
        (self.cfg.b_r * self.cfg.b_c) as u64 * self.mapping().tile_latency()
    }

    /// Words DMA moves in per block (the IFM bank images + the kernel).
    #[must_use]
    pub fn block_input_words(&self) -> u64 {
        let k = self.layer.k();
        let s = self.layer.s();
        let block_w = s * (self.cfg.b_c * self.spec.cols - 1) + k;
        let input_rows = (self.cfg.b_r * self.spec.rows - 1) * s + k;
        (input_rows * block_w + k * k) as u64
    }

    /// Words DMA moves out per block.
    #[must_use]
    pub fn block_output_words(&self) -> u64 {
        (self.cfg.b_r * self.spec.rows * self.cfg.b_c * self.spec.cols) as u64
    }

    /// Useful MACs in one block.
    #[must_use]
    pub fn block_macs(&self) -> u64 {
        self.block_output_words() * (self.layer.k() * self.layer.k()) as u64
    }

    /// The tile schedule every block of the layer runs.
    fn mapping(&self) -> DwcGeneralMapping {
        let (k, s) = (self.layer.k(), self.layer.s());
        let addr_ofm = layout::dwc_general_addr_ofm(self.cfg, self.spec.rows, self.spec.cols, k, s);
        DwcGeneralMapping::new(k, s, &self.spec, addr_ofm).with_activation(self.layer.activation())
    }

    /// Block `idx`'s channel and output origin `(ch, r0, c0)`.
    fn origin(&self, idx: usize) -> (usize, usize, usize) {
        assert!(idx < self.num_blocks(), "block {idx} out of range");
        let per_ch = self.blocks_h * self.blocks_w;
        let rb = (idx % per_ch) / self.blocks_w;
        let cb = idx % self.blocks_w;
        (
            idx / per_ch,
            rb * self.cfg.b_r * self.spec.rows,
            cb * self.cfg.b_c * self.spec.cols,
        )
    }

    /// Block `idx`'s data-independent geometry: label, tiles, tile latency
    /// and OFM extraction slots.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_blocks()`.
    #[must_use]
    pub fn geometry(&self, idx: usize) -> BlockGeometry {
        let (ch, r0, c0) = self.origin(idx);
        let (nr, nc) = (self.spec.rows, self.spec.cols);
        BlockGeometry {
            label: format!("{}[ch={ch},r={r0},c={c0}]", self.layer.name()),
            tiles: TilePos::first(self.cfg.b_r, self.cfg.b_c),
            tile_latency: self.mapping().tile_latency(),
            ofm_slots: layout::dwc_ofm_slots(
                ch,
                r0,
                c0,
                self.cfg,
                nr,
                nc,
                self.layer.out_h(),
                self.layer.out_w(),
                layout::dwc_general_addr_ofm(self.cfg, nr, nc, self.layer.k(), self.layer.s()),
            ),
        }
    }

    /// Materialize block `idx` against the *padded* IFM (see
    /// [`padded_ifm`]) and the `(N_i, K, K)` weight tensor.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_blocks()`.
    #[must_use]
    pub fn materialize(&self, idx: usize, padded: &Tensor, weights: &Tensor) -> BlockProgram {
        let (ch, r0, c0) = self.origin(idx);
        let geometry = self.geometry(idx);
        let (h_banks, _) = layout::dwc_general_h_image(
            padded,
            ch,
            r0,
            c0,
            self.cfg,
            self.spec.rows,
            self.spec.cols,
            self.layer.k(),
            self.layer.s(),
        );
        BlockProgram {
            label: geometry.label,
            h_banks,
            v_banks: layout::dwc_v_image(weights, ch, self.layer.k(), self.spec.cols),
            grf: act::grf_constant(self.layer.activation()).map_or_else(Vec::new, |c| vec![c]),
            weight_buffer: Vec::new(),
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

    fn spec4() -> CgraSpec {
        CgraSpec::np_cgra(4, 4)
    }

    #[test]
    fn table5_dwc_s2_tile_latency() {
        // K=3, S=2 on 4×4: K((N_c−1)S+K) + N_c + 1 = 27 + 5 = 32, giving the
        // 28 % utilization of Table 5 (144 useful MACs / (16·32)).
        let m = DwcGeneralMapping::new(3, 2, &spec4(), 0);
        assert_eq!(m.tile_latency(), 32);
        let util: f64 = 144.0 / (16.0 * 32.0);
        assert!((util - 0.28).abs() < 0.002);
    }

    #[test]
    fn layer_latency_near_paper() {
        // MobileNet V1 dw2 (S=2): paper reports 0.81 ms on the 4×4.
        let layer = ConvLayer::depthwise("dw2", 64, 112, 112, 3, 2, 1);
        let map = DwcGeneralLayerMap::new(&layer, &spec4()).unwrap();
        let cycles = map.num_blocks() as u64 * map.block_compute_cycles();
        let ms = cycles as f64 / 500e6 * 1e3;
        assert!((0.75..0.95).contains(&ms), "DWC S=2 compute {ms} ms");
    }

    #[test]
    fn rejects_pointwise() {
        let layer = ConvLayer::pointwise("pw", 8, 8, 8, 8);
        assert!(DwcGeneralLayerMap::new(&layer, &spec4()).is_err());
    }

    #[test]
    fn pe_ops_follow_window() {
        let m = DwcGeneralMapping::new(3, 2, &spec4(), 0);
        let pos = TilePos::first(1, 1);
        let clock = TileClock::start();
        // Cycle 0 of row 0: column 0 initializes, others idle.
        assert_eq!(m.pe_instruction(clock, pos, 0, 0).op, npcgra_arch::Op::Mul);
        assert_eq!(m.pe_instruction(clock, pos, 0, 1).op, npcgra_arch::Op::Nop);
        let mut c2 = clock;
        c2.step(false);
        c2.step(false);
        // Cycle 2: column 0 is at tap 2 (accumulating) while column 1 sees
        // its own first tap (kx = 0) and initializes its accumulator.
        assert_eq!(m.pe_instruction(c2, pos, 0, 0).op, npcgra_arch::Op::Mac);
        assert_eq!(m.pe_instruction(c2, pos, 0, 1).op, npcgra_arch::Op::Mul);
    }

    #[test]
    fn block_words_are_positive_and_bounded() {
        let layer = ConvLayer::depthwise("dw", 16, 20, 20, 3, 2, 1);
        let map = DwcGeneralLayerMap::new(&layer, &spec4()).unwrap();
        assert!(map.block_input_words() > 0);
        let budget = BlockCfg::hmem_words_per_bank(&spec4()) * 4;
        assert!((map.block_input_words() as usize) < budget * 2);
    }

    #[test]
    fn materialized_block_shapes() {
        let layer = ConvLayer::depthwise("dw", 2, 10, 10, 3, 2, 1);
        let map = DwcGeneralLayerMap::new(&layer, &spec4()).unwrap();
        let padded = padded_ifm(&layer, &Tensor::random(2, 10, 10, 3));
        let w = layer.random_weights(4);
        let b = map.materialize(0, &padded, &w);
        assert_eq!(b.h_banks.len(), 4);
        assert_eq!(b.v_banks.len(), 4);
        assert_eq!(b.v_banks[0].len(), 9);
        assert!(!b.ofm_slots.is_empty());
    }
}
