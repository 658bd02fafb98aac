//! The PWC (pointwise / matrix-multiplication) mapping (§3.2, Fig. 1).
//!
//! Output-stationary 2-D tiling: PE `(r, c)` accumulates output pixel
//! `p0 + tid_r·N_r + r` × output channel `o0 + tid_c·N_c + c`, reading the
//! shared IFM operand from its row's H-bus and the shared weight operand
//! from its column's V-bus — 100 % MAC utilization during the `N_i`-cycle
//! stream. Standard convolution reaches this mapping through im2col, and
//! one image row is processed per block sequence (`N_h` term of Table 3).

use npcgra_agu::{MemRequest, PwcAgu, TileClock, TilePos};
use npcgra_arch::{CgraSpec, Instruction, MuxSel};
use npcgra_nn::{Activation, ConvKind, ConvLayer, Tensor};

use crate::act;
use crate::layout;
use crate::program::{BlockGeometry, BlockProgram, StorePort, TileMapping};
use crate::tiling::BlockCfg;

/// Mapping-construction error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapError {
    message: String,
}

impl MapError {
    /// Build a mapping error with the given message.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        MapError { message: message.into() }
    }
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot map layer: {}", self.message)
    }
}

impl std::error::Error for MapError {}

/// The per-tile schedule of the PWC mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PwcMapping {
    agu: PwcAgu,
    ni: usize,
    act: Activation,
}

impl PwcMapping {
    /// Build the tile schedule for reduction length `ni` on `spec`, with the
    /// H-MEM OFM region starting at `addr_ofm`.
    #[must_use]
    pub fn new(ni: usize, spec: &CgraSpec, addr_ofm: usize) -> Self {
        PwcMapping {
            agu: PwcAgu {
                ni,
                nc: spec.cols,
                addr_ifm: 0,
                addr_ofm,
                addr_w: 0,
            },
            ni,
            act: Activation::None,
        }
    }

    /// Builder-style: fuse an activation into the tile epilogue.
    #[must_use]
    pub fn with_activation(mut self, act: Activation) -> Self {
        self.act = act;
        self
    }

    fn ep(&self) -> usize {
        act::epilogue_len(self.act) as usize
    }

    /// The zero-based store cycle, if `t_cycle` is a store cycle.
    fn store_step(&self, clock: TileClock) -> Option<usize> {
        let t = clock.t_cycle as usize;
        let start = self.ni + self.ep();
        (t >= start && t < start + self.agu.nc).then(|| t - start)
    }

    /// Synthesize the counter state the epilogue-free AGU expects for store
    /// cycle `j` (its store window starts one bubble after the stream).
    fn agu_store_clock(&self, j: usize) -> TileClock {
        TileClock {
            t_cycle: (self.ni + 1 + j) as u64,
            t_wrap: 1,
            t_wcycle: (1 + j) as u64,
        }
    }
}

impl TileMapping for PwcMapping {
    fn phase_len(&self, t_wrap: u64) -> Option<u64> {
        match t_wrap {
            0 => Some(self.ni as u64),
            1 => Some((self.ep() + self.agu.nc) as u64),
            _ => None,
        }
    }

    fn tile_latency(&self) -> u64 {
        (self.ni + self.ep() + self.agu.nc) as u64
    }

    fn pe_instruction(&self, clock: TileClock, _pos: TilePos, _r: usize, _c: usize) -> Instruction {
        let t = clock.t_cycle as usize;
        if t == 0 {
            Instruction::mul(MuxSel::HBus, MuxSel::VBus)
        } else if t < self.ni {
            Instruction::mac(MuxSel::HBus, MuxSel::VBus)
        } else if t < self.ni + self.ep() {
            act::epilogue_instruction(self.act, (t - self.ni) as u64)
        } else {
            Instruction::nop()
        }
    }

    fn h_request(&self, clock: TileClock, pos: TilePos, aid_r: usize) -> Option<MemRequest> {
        let t = clock.t_cycle as usize;
        if t < self.ni {
            self.agu.h_request(clock, pos, aid_r)
        } else {
            let j = self.store_step(clock)?;
            self.agu.h_request(self.agu_store_clock(j), pos, aid_r)
        }
    }

    fn v_request(&self, clock: TileClock, pos: TilePos, aid_c: usize) -> Option<MemRequest> {
        ((clock.t_cycle as usize) < self.ni)
            .then(|| self.agu.v_request(clock, pos, aid_c))
            .flatten()
    }

    fn grf_index(&self, clock: TileClock) -> Option<usize> {
        let t = clock.t_cycle as usize;
        let step = act::grf_read_step(self.act)?;
        (t == self.ni + step as usize).then_some(0)
    }

    fn store_port(&self, clock: TileClock) -> Option<StorePort> {
        self.store_step(clock).map(|column| StorePort { column })
    }
}

/// A whole pointwise layer mapped onto a machine: block geometry plus lazy
/// block materialization.
///
/// # Example
///
/// ```
/// use npcgra_arch::CgraSpec;
/// use npcgra_nn::ConvLayer;
/// use npcgra_kernels::pwc::PwcLayerMap;
///
/// let layer = ConvLayer::pointwise("pw", 32, 64, 112, 112);
/// let map = PwcLayerMap::new(&layer, &CgraSpec::np_cgra(4, 4)).unwrap();
/// assert!(map.num_blocks() >= 112); // at least one block per image row
/// ```
#[derive(Debug, Clone)]
pub struct PwcLayerMap {
    layer: ConvLayer,
    spec: CgraSpec,
    cfg: BlockCfg,
    blocks_p: usize,
    blocks_o: usize,
    addr_ofm: usize,
}

impl PwcLayerMap {
    /// Plan the layer.
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] if the layer is not pointwise or its reduction
    /// (`N_i`) cannot fit a single H-MEM bank even at the minimum block.
    pub fn new(layer: &ConvLayer, spec: &CgraSpec) -> Result<Self, MapError> {
        if layer.kind() != ConvKind::Pointwise {
            return Err(MapError::new(format!("{} is not pointwise", layer.name())));
        }
        let cfg = BlockCfg::choose_pwc(spec, layer.in_channels(), layer.out_w(), layer.out_channels());
        let budget = BlockCfg::hmem_words_per_bank(spec);
        if cfg.b_r * layer.in_channels() + cfg.b_r * cfg.b_c * spec.cols > budget {
            return Err(MapError::new(format!(
                "N_i = {} exceeds the per-bank budget {budget}",
                layer.in_channels()
            )));
        }
        let blocks_p = BlockCfg::blocks_to_cover(layer.out_w(), cfg.b_r * spec.rows);
        let blocks_o = BlockCfg::blocks_to_cover(layer.out_channels(), cfg.b_c * spec.cols);
        Ok(PwcLayerMap {
            layer: layer.clone(),
            spec: *spec,
            cfg,
            blocks_p,
            blocks_o,
            addr_ofm: cfg.b_r * layer.in_channels(),
        })
    }

    /// Chosen block geometry.
    #[must_use]
    pub fn cfg(&self) -> BlockCfg {
        self.cfg
    }

    /// Blocks in the whole layer: rows × pixel-chunks × channel-chunks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.layer.out_h() * self.blocks_p * self.blocks_o
    }

    /// Compute cycles of any one block (they are uniform).
    #[must_use]
    pub fn block_compute_cycles(&self) -> u64 {
        (self.cfg.b_r * self.cfg.b_c) as u64 * self.mapping().tile_latency()
    }

    /// Words DMA moves in per block (IFM pixels + weights).
    #[must_use]
    pub fn block_input_words(&self) -> u64 {
        let ifm = self.cfg.b_r * self.spec.rows * self.layer.in_channels();
        let w = self.cfg.b_c * self.spec.cols * self.layer.in_channels();
        (ifm + w) as u64
    }

    /// Words DMA moves out per block (the OFM region).
    #[must_use]
    pub fn block_output_words(&self) -> u64 {
        (self.cfg.b_r * self.spec.rows * self.cfg.b_c * self.spec.cols) as u64
    }

    /// Useful MACs in one block (utilization accounting).
    #[must_use]
    pub fn block_macs(&self) -> u64 {
        (self.cfg.b_r * self.spec.rows * self.cfg.b_c * self.spec.cols) as u64 * self.layer.in_channels() as u64
    }

    /// The tile schedule every block of the layer runs.
    fn mapping(&self) -> PwcMapping {
        PwcMapping::new(self.layer.in_channels(), &self.spec, self.addr_ofm).with_activation(self.layer.activation())
    }

    /// Block `idx`'s image row and first pixel / output channel.
    fn origin(&self, idx: usize) -> (usize, usize, usize) {
        assert!(idx < self.num_blocks(), "block {idx} out of range");
        let per_row = self.blocks_p * self.blocks_o;
        let y = idx / per_row;
        let p_blk = (idx % per_row) / self.blocks_o;
        let o_blk = idx % self.blocks_o;
        (
            y,
            p_blk * self.cfg.b_r * self.spec.rows,
            o_blk * self.cfg.b_c * self.spec.cols,
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
        let (y, p0, o0) = self.origin(idx);
        BlockGeometry {
            label: format!("{}[y={y},p={p0},o={o0}]", self.layer.name()),
            tiles: TilePos::first(self.cfg.b_r, self.cfg.b_c),
            tile_latency: self.mapping().tile_latency(),
            ofm_slots: layout::pwc_ofm_slots(
                y,
                p0,
                o0,
                self.cfg,
                self.spec.rows,
                self.spec.cols,
                self.layer.out_w(),
                self.layer.out_channels(),
                self.addr_ofm,
            ),
        }
    }

    /// Materialize block `idx` against real data.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_blocks()` or tensor shapes mismatch the layer.
    #[must_use]
    pub fn materialize(&self, idx: usize, ifm: &Tensor, weights: &Tensor) -> BlockProgram {
        let (y, p0, o0) = self.origin(idx);
        let geometry = self.geometry(idx);
        let (h_banks, addr_ofm) = layout::pwc_h_image(ifm, y, p0, self.cfg, self.spec.rows, self.spec.cols);
        debug_assert_eq!(addr_ofm, self.addr_ofm);
        let v_banks = layout::pwc_v_image(weights, o0, self.cfg, self.spec.cols);
        BlockProgram {
            label: geometry.label,
            h_banks,
            v_banks,
            grf: crate::act::grf_constant(self.layer.activation()).map_or_else(Vec::new, |c| vec![c]),
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
    fn table5_pwc_block_plan() {
        // MobileNet V1 pw1 on the 4×4 machine: T = 32 + 4 + 1 = 37, one
        // block per image row covering all pixels and channels.
        let layer = ConvLayer::pointwise("pw1", 32, 64, 112, 112);
        let map = PwcLayerMap::new(&layer, &spec4()).unwrap();
        let tiles = (map.cfg().b_r * map.cfg().b_c) as u64;
        assert_eq!(map.block_compute_cycles() / tiles, 37);
        // Layer compute cycles ≈ paper's 3.72 ms at 500 MHz.
        let total = map.num_blocks() as u64 * map.block_compute_cycles();
        let ms = total as f64 / 500e6 * 1e3;
        assert!((3.5..4.0).contains(&ms), "PWC compute {ms} ms");
    }

    #[test]
    fn rejects_depthwise() {
        let layer = ConvLayer::depthwise("dw", 8, 8, 8, 3, 1, 1);
        assert!(PwcLayerMap::new(&layer, &spec4()).is_err());
    }

    #[test]
    fn rejects_oversize_reduction() {
        let mut spec = spec4();
        spec.hmem_bytes = 256; // 32 words per bank
        let layer = ConvLayer::pointwise("pw", 64, 8, 4, 4);
        assert!(PwcLayerMap::new(&layer, &spec).is_err());
    }

    #[test]
    fn pe_instructions_stream_then_idle() {
        let m = PwcMapping::new(4, &spec4(), 100);
        let pos = TilePos::first(1, 1);
        let mut clock = TileClock::start();
        let i0 = m.pe_instruction(clock, pos, 0, 0);
        assert_eq!(i0.op, npcgra_arch::Op::Mul);
        clock.step(false);
        assert_eq!(m.pe_instruction(clock, pos, 2, 3).op, npcgra_arch::Op::Mac);
        for _ in 1..4 {
            clock.step(false);
        }
        assert_eq!(m.pe_instruction(clock, pos, 0, 0).op, npcgra_arch::Op::Nop);
    }

    #[test]
    fn block_count_covers_layer() {
        let layer = ConvLayer::pointwise("pw", 16, 24, 10, 10);
        let map = PwcLayerMap::new(&layer, &spec4()).unwrap();
        let per_block_pixels = map.cfg().b_r * 4;
        let per_block_chans = map.cfg().b_c * 4;
        assert!(map.num_blocks() * per_block_pixels * per_block_chans >= 10 * 10 * 24 / 10);
        assert_eq!(map.num_blocks() % layer.out_h(), 0);
    }

    #[test]
    fn materialized_block_is_consistent() {
        let layer = ConvLayer::pointwise("pw", 8, 8, 6, 6);
        let map = PwcLayerMap::new(&layer, &spec4()).unwrap();
        let ifm = Tensor::random(8, 6, 6, 1);
        let w = layer.random_weights(2);
        let b = map.materialize(0, &ifm, &w);
        assert_eq!(b.h_banks.len(), 4);
        assert_eq!(b.v_banks.len(), 4);
        assert!(b.mapping.uses_vbus());
        assert_eq!(b.compute_cycles(), map.block_compute_cycles());
        assert!(!b.ofm_slots.is_empty());
    }
}
