//! The optimized stride-1 DWC mapping (§4.2, Figs. 6–8).
//!
//! Output-stationary with operand reuse: after an `N_c−1`-cycle prologue
//! that pre-fills the operand-reuse latches, the array walks the kernel in
//! boustrophedon order, one tap per cycle, with every PE MAC-ing the
//! broadcast GRF weight against an IFM value that is either reused from a
//! neighbour's latch or loaded fresh at the expanding edge (H-busses east/
//! west, V-busses south).

use npcgra_agu::dwc_s1::S1Phase;
use npcgra_agu::{DwcS1Agu, MemRequest, TileClock, TilePos};
use npcgra_arch::{CgraSpec, Instruction, MuxSel, Op, OrnTap};
use npcgra_nn::{Activation, ConvKind, ConvLayer, Tensor};

use crate::act;
use crate::layout;
use crate::program::{BlockGeometry, BlockProgram, StorePort, TileMapping};
use crate::pwc::MapError;
use crate::tiling::BlockCfg;

/// The per-tile schedule of the stride-1 DWC mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DwcS1Mapping {
    agu: DwcS1Agu,
    nr: usize,
    nc: usize,
    act: Activation,
}

impl DwcS1Mapping {
    /// Build the tile schedule for kernel `k` on `spec`, with the H-MEM OFM
    /// region at `addr_ofm`.
    #[must_use]
    pub fn new(k: usize, spec: &CgraSpec, addr_ofm: usize) -> Self {
        DwcS1Mapping {
            agu: DwcS1Agu {
                k,
                nr: spec.rows,
                nc: spec.cols,
                addr_ifm: 0,
                addr_ofm,
                addr_vm: 0,
            },
            nr: spec.rows,
            nc: spec.cols,
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

    fn store_step(&self, clock: TileClock) -> Option<usize> {
        let t = clock.t_wcycle as usize;
        (clock.t_wrap as usize == self.agu.k && t >= self.ep() && t < self.ep() + self.nc).then(|| t - self.ep())
    }

    fn agu_store_clock(&self, clock: TileClock, j: usize) -> TileClock {
        TileClock {
            t_cycle: clock.t_cycle,
            t_wrap: self.agu.k as u64,
            t_wcycle: (1 + j) as u64,
        }
    }

    /// The underlying AGU configuration.
    #[must_use]
    pub fn agu(&self) -> DwcS1Agu {
        self.agu
    }

    fn reuse(op: Op, source: MuxSel, tap: OrnTap) -> Instruction {
        Instruction {
            op,
            mux_a: source,
            mux_b: MuxSel::Grf,
            in_op: tap,
            orn_en: true,
            ..Instruction::default()
        }
    }
}

impl TileMapping for DwcS1Mapping {
    fn phase_len(&self, t_wrap: u64) -> Option<u64> {
        if (t_wrap as usize) < self.agu.k {
            self.agu.phase_len(t_wrap)
        } else if t_wrap as usize == self.agu.k {
            // Activation epilogue + stores + one drain cycle.
            Some((self.ep() + self.nc + 1) as u64)
        } else {
            None
        }
    }

    fn tile_latency(&self) -> u64 {
        // Prologue + K*K compute + epilogue + stores + drain.
        (self.nc - 1 + self.agu.k * self.agu.k + self.ep() + self.nc + 1) as u64
    }

    fn pe_instruction(&self, clock: TileClock, _pos: TilePos, r: usize, c: usize) -> Instruction {
        if clock.t_wrap as usize == self.agu.k {
            let t = clock.t_wcycle as usize;
            if t < self.ep() {
                return act::epilogue_instruction(self.act, t as u64);
            }
            return Instruction::nop();
        }
        match self.agu.phase(clock) {
            S1Phase::Prologue => {
                let t = clock.t_wcycle as usize;
                if c == self.nc - 1 {
                    // East edge: latch the H-bus value (no compute yet).
                    Instruction {
                        op: Op::Nop,
                        mux_a: MuxSel::HBus,
                        in_op: OrnTap::East,
                        orn_en: true,
                        ..Instruction::default()
                    }
                } else if c + t + 1 >= self.nc && c < self.nc - 1 {
                    // The shift wave has reached this PE: pass the east
                    // neighbour's latch along.
                    Instruction {
                        op: Op::Nop,
                        mux_a: MuxSel::Orn,
                        in_op: OrnTap::East,
                        orn_en: true,
                        ..Instruction::default()
                    }
                } else {
                    Instruction::nop()
                }
            }
            S1Phase::ExpandEast { ky, kx } => {
                let op = if ky == 0 && kx == 0 { Op::Mul } else { Op::Mac };
                let src = if c == self.nc - 1 { MuxSel::HBus } else { MuxSel::Orn };
                Self::reuse(op, src, OrnTap::East)
            }
            S1Phase::ShiftSouth { .. } => {
                let src = if r == self.nr - 1 { MuxSel::VBus } else { MuxSel::Orn };
                Self::reuse(Op::Mac, src, OrnTap::South)
            }
            S1Phase::ExpandWest { .. } => {
                let src = if c == 0 { MuxSel::HBus } else { MuxSel::Orn };
                Self::reuse(Op::Mac, src, OrnTap::West)
            }
            S1Phase::Bubble | S1Phase::Store(_) => Instruction::nop(),
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
        if (clock.t_wrap as usize) < self.agu.k {
            return self.agu.grf_index(clock);
        }
        // Leaky-ReLU shift constant, stored just past the K*K kernel taps.
        let step = act::grf_read_step(self.act)?;
        (clock.t_wcycle == step).then_some(self.agu.k * self.agu.k)
    }

    fn store_port(&self, clock: TileClock) -> Option<StorePort> {
        self.store_step(clock).map(|column| StorePort { column })
    }
}

/// A whole stride-1 depthwise layer mapped with the optimized schedule.
///
/// # Example
///
/// ```
/// use npcgra_arch::CgraSpec;
/// use npcgra_nn::ConvLayer;
/// use npcgra_kernels::dwc_s1::DwcS1LayerMap;
///
/// let layer = ConvLayer::depthwise("dw1", 32, 112, 112, 3, 1, 1);
/// let map = DwcS1LayerMap::new(&layer, &CgraSpec::np_cgra(4, 4)).unwrap();
/// assert_eq!(map.num_blocks() % 32, 0);
/// ```
#[derive(Debug, Clone)]
pub struct DwcS1LayerMap {
    layer: ConvLayer,
    spec: CgraSpec,
    cfg: BlockCfg,
    blocks_h: usize,
    blocks_w: usize,
}

impl DwcS1LayerMap {
    /// Plan the layer.
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] if the layer is not depthwise with stride 1.
    pub fn new(layer: &ConvLayer, spec: &CgraSpec) -> Result<Self, MapError> {
        if layer.kind() != ConvKind::Depthwise || layer.s() != 1 {
            return Err(MapError::new(format!("{} is not a stride-1 depthwise layer", layer.name())));
        }
        let cfg = BlockCfg::choose_dwc(spec, layer.k(), 1, layer.out_h(), layer.out_w());
        let blocks_h = BlockCfg::blocks_to_cover(layer.out_h(), cfg.b_r * spec.rows);
        let blocks_w = BlockCfg::blocks_to_cover(layer.out_w(), cfg.b_c * spec.cols);
        Ok(DwcS1LayerMap {
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

    /// Words DMA moves in per block (H image + SS V image + GRF kernel).
    #[must_use]
    pub fn block_input_words(&self) -> u64 {
        let k = self.layer.k();
        let block_w = self.cfg.b_c * self.spec.cols + k - 1;
        let input_rows = self.cfg.b_r * self.spec.rows + k - 1;
        let v_entries = self.cfg.b_r * (k - 1) * self.cfg.b_c * self.spec.cols;
        (input_rows * block_w + v_entries + k * k) as u64
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
    fn mapping(&self) -> DwcS1Mapping {
        let addr_ofm = layout::dwc_s1_addr_ofm(self.cfg, self.spec.rows, self.spec.cols, self.layer.k());
        DwcS1Mapping::new(self.layer.k(), &self.spec, addr_ofm).with_activation(self.layer.activation())
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
                layout::dwc_s1_addr_ofm(self.cfg, nr, nc, self.layer.k()),
            ),
        }
    }

    /// Materialize block `idx` against the *padded* IFM and the
    /// `(N_i, K, K)` weight tensor.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_blocks()`.
    #[must_use]
    pub fn materialize(&self, idx: usize, padded: &Tensor, weights: &Tensor) -> BlockProgram {
        let (ch, r0, c0) = self.origin(idx);
        let geometry = self.geometry(idx);
        let k = self.layer.k();
        let (h_banks, _) = layout::dwc_s1_h_image(padded, ch, r0, c0, self.cfg, self.spec.rows, self.spec.cols, k);
        let v_banks = layout::dwc_s1_v_image(padded, ch, r0, c0, self.cfg, self.spec.rows, self.spec.cols, k);
        let mut grf = layout::dwc_grf_image(weights, ch, k);
        if let Some(c) = act::grf_constant(self.layer.activation()) {
            grf.push(c); // the leaky-ReLU shift, just past the K*K taps
        }
        BlockProgram {
            label: geometry.label,
            h_banks,
            v_banks,
            grf,
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
    fn table5_dwc_s1_utilization() {
        // T = K² + 2N_c + 1 = 18 on the 4×4; util = 9·16/(16·18) = 50 %,
        // the paper's 49 % row.
        let m = DwcS1Mapping::new(3, &spec4(), 0);
        assert_eq!(m.tile_latency(), 18);
    }

    #[test]
    fn layer_latency_near_paper() {
        // MobileNet V1 dw1 (S=1): paper reports 0.92 ms on the 4×4.
        let layer = ConvLayer::depthwise("dw1", 32, 112, 112, 3, 1, 1);
        let map = DwcS1LayerMap::new(&layer, &spec4()).unwrap();
        let cycles = map.num_blocks() as u64 * map.block_compute_cycles();
        let ms = cycles as f64 / 500e6 * 1e3;
        assert!((0.85..1.0).contains(&ms), "DWC S=1 compute {ms} ms");
    }

    #[test]
    fn rejects_stride_2() {
        let layer = ConvLayer::depthwise("dw", 8, 8, 8, 3, 2, 1);
        assert!(DwcS1LayerMap::new(&layer, &spec4()).is_err());
    }

    #[test]
    fn prologue_instructions_shift_west() {
        let m = DwcS1Mapping::new(3, &spec4(), 0);
        let pos = TilePos::first(1, 1);
        let clock = TileClock::start(); // prologue cycle 0
        let east = m.pe_instruction(clock, pos, 0, 3);
        assert_eq!(east.mux_a, MuxSel::HBus);
        assert!(east.orn_en);
        assert_eq!(east.op, Op::Nop);
        // PE (0,2) joins the wave only after the first value reaches it.
        assert_eq!(m.pe_instruction(clock, pos, 0, 2).mux_a, MuxSel::Zero);
        let mut c1 = clock;
        c1.step(false);
        assert_eq!(m.pe_instruction(c1, pos, 0, 2).mux_a, MuxSel::Orn);
    }

    #[test]
    fn ss_row_sources() {
        let m = DwcS1Mapping::new(3, &spec4(), 0);
        let pos = TilePos::first(1, 1);
        // Drive the clock to the first SS cycle: t_wrap=1, t_wcycle=0.
        let mut clock = TileClock::start();
        let p0 = m.phase_len(0).unwrap();
        for i in 0..p0 {
            clock.step(i + 1 == p0);
        }
        assert!(matches!(m.agu().phase(clock), S1Phase::ShiftSouth { .. }));
        assert_eq!(m.pe_instruction(clock, pos, 3, 1).mux_a, MuxSel::VBus);
        let inner = m.pe_instruction(clock, pos, 1, 1);
        assert_eq!(inner.mux_a, MuxSel::Orn);
        assert_eq!(inner.in_op, OrnTap::South);
        assert_eq!(inner.op, Op::Mac);
    }

    #[test]
    fn first_compute_cycle_initializes() {
        let m = DwcS1Mapping::new(3, &spec4(), 0);
        let pos = TilePos::first(1, 1);
        let mut clock = TileClock::start();
        for _ in 0..3 {
            clock.step(false); // through the 3-cycle prologue (N_c = 4)
        }
        let ins = m.pe_instruction(clock, pos, 0, 0);
        assert_eq!(ins.op, Op::Mul);
        assert_eq!(ins.mux_b, MuxSel::Grf);
    }

    #[test]
    fn materialized_block_has_grf() {
        let layer = ConvLayer::depthwise("dw", 2, 12, 12, 3, 1, 1);
        let map = DwcS1LayerMap::new(&layer, &spec4()).unwrap();
        let padded = crate::dwc_general::padded_ifm(&layer, &Tensor::random(2, 12, 12, 5));
        let w = layer.random_weights(6);
        let b = map.materialize(map.num_blocks() - 1, &padded, &w);
        assert_eq!(b.grf.len(), 9);
        assert_eq!(b.grf[0], w.get(1, 0, 0));
        assert!(!b.ofm_slots.is_empty());
    }

    #[test]
    fn block_count_scales_with_channels() {
        let l8 = ConvLayer::depthwise("a", 8, 16, 16, 3, 1, 1);
        let l16 = ConvLayer::depthwise("b", 16, 16, 16, 3, 1, 1);
        let m8 = DwcS1LayerMap::new(&l8, &spec4()).unwrap();
        let m16 = DwcS1LayerMap::new(&l16, &spec4()).unwrap();
        assert_eq!(2 * m8.num_blocks(), m16.num_blocks());
    }
}
