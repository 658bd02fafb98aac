//! Matrix-multiplication-based DWC — the "Matmul DWC" comparison point of
//! Table 5.
//!
//! DWC is converted to matmul by im2col: per channel, the
//! `(N_h·N_w) × K²` pixel matrix times the `K² × 1` kernel column. Because
//! each channel has exactly *one* output column, only one CGRA column ever
//! does useful work (utilization cannot exceed `1/N_c`, §6.2); the
//! remaining columns idle through the schedule. As in the paper, im2col
//! time is *not* charged to this mapping in Table 5.

use npcgra_agu::{MemRequest, PwcAgu, TileClock, TilePos};
use npcgra_arch::{CgraSpec, Instruction, MuxSel};
use npcgra_nn::{Activation, ConvKind, ConvLayer, Tensor, Word};

use crate::act;
use crate::layout::OfmSlot;
use crate::program::{BlockGeometry, BlockProgram, StorePort, TileMapping};
use crate::pwc::MapError;
use crate::tiling::BlockCfg;

/// The per-tile schedule: a PWC tile with reduction `K²` whose useful work
/// is confined to column 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatmulDwcMapping {
    agu: PwcAgu,
    kk: usize,
    act: Activation,
}

impl MatmulDwcMapping {
    /// Build the tile schedule for kernel size `k` on `spec`.
    #[must_use]
    pub fn new(k: usize, spec: &CgraSpec, addr_ofm: usize) -> Self {
        MatmulDwcMapping {
            agu: PwcAgu {
                ni: k * k,
                nc: spec.cols,
                addr_ifm: 0,
                addr_ofm,
                addr_w: 0,
            },
            kk: k * k,
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
        let t = clock.t_cycle as usize;
        let start = self.kk + self.ep();
        (t >= start && t < start + self.agu.nc).then(|| t - start)
    }

    fn agu_store_clock(&self, j: usize) -> TileClock {
        TileClock {
            t_cycle: (self.kk + 1 + j) as u64,
            t_wrap: 1,
            t_wcycle: (1 + j) as u64,
        }
    }
}

impl TileMapping for MatmulDwcMapping {
    fn phase_len(&self, t_wrap: u64) -> Option<u64> {
        match t_wrap {
            0 => Some(self.kk as u64),
            1 => Some((self.ep() + self.agu.nc) as u64),
            _ => None,
        }
    }

    fn tile_latency(&self) -> u64 {
        (self.kk + self.ep() + self.agu.nc) as u64
    }

    fn pe_instruction(&self, clock: TileClock, _pos: TilePos, _r: usize, c: usize) -> Instruction {
        let t = clock.t_cycle as usize;
        if t >= self.kk && t < self.kk + self.ep() && c == 0 {
            return act::epilogue_instruction(self.act, (t - self.kk) as u64);
        }
        if c != 0 || t >= self.kk {
            Instruction::nop()
        } else if t == 0 {
            Instruction::mul(MuxSel::HBus, MuxSel::VBus)
        } else {
            Instruction::mac(MuxSel::HBus, MuxSel::VBus)
        }
    }

    fn h_request(&self, clock: TileClock, pos: TilePos, aid_r: usize) -> Option<MemRequest> {
        let t = clock.t_cycle as usize;
        if t < self.kk {
            self.agu.h_request(clock, pos, aid_r)
        } else {
            let j = self.store_step(clock)?;
            self.agu.h_request(self.agu_store_clock(j), pos, aid_r)
        }
    }

    fn v_request(&self, clock: TileClock, pos: TilePos, aid_c: usize) -> Option<MemRequest> {
        if aid_c != 0 || clock.t_cycle as usize >= self.kk {
            return None;
        }
        self.agu.v_request(clock, pos, aid_c)
    }

    fn grf_index(&self, clock: TileClock) -> Option<usize> {
        let t = clock.t_cycle as usize;
        let step = act::grf_read_step(self.act)?;
        (t == self.kk + step as usize).then_some(0)
    }

    fn store_port(&self, clock: TileClock) -> Option<StorePort> {
        self.store_step(clock).map(|column| StorePort { column })
    }
}

/// A whole depthwise layer run as per-channel matmul.
#[derive(Debug, Clone)]
pub struct MatmulDwcLayerMap {
    layer: ConvLayer,
    spec: CgraSpec,
    b_r: usize,
    blocks_p: usize,
}

impl MatmulDwcLayerMap {
    /// Plan the layer.
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] if the layer is not depthwise.
    pub fn new(layer: &ConvLayer, spec: &CgraSpec) -> Result<Self, MapError> {
        if layer.kind() != ConvKind::Depthwise {
            return Err(MapError::new(format!("{} is not depthwise", layer.name())));
        }
        let kk = layer.k() * layer.k();
        let budget = BlockCfg::hmem_words_per_bank(spec);
        let pixels = layer.out_h() * layer.out_w();
        let max_br = pixels.div_ceil(spec.rows).max(1);
        let b_r = BlockCfg::best_split(max_br, (budget / (kk + spec.cols)).max(1));
        let blocks_p = BlockCfg::blocks_to_cover(pixels, b_r * spec.rows);
        Ok(MatmulDwcLayerMap {
            layer: layer.clone(),
            spec: *spec,
            b_r,
            blocks_p,
        })
    }

    /// Blocks in the layer: channels × pixel-chunks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.layer.in_channels() * self.blocks_p
    }

    /// Tiles per block.
    #[must_use]
    pub fn tiles_per_block(&self) -> usize {
        self.b_r
    }

    /// Compute cycles of any one block.
    #[must_use]
    pub fn block_compute_cycles(&self) -> u64 {
        self.b_r as u64 * self.mapping().tile_latency()
    }

    /// Words DMA moves in per block (im2col rows + the kernel column).
    #[must_use]
    pub fn block_input_words(&self) -> u64 {
        let kk = self.layer.k() * self.layer.k();
        (self.b_r * self.spec.rows * kk + kk) as u64
    }

    /// Words DMA moves out per block.
    #[must_use]
    pub fn block_output_words(&self) -> u64 {
        (self.b_r * self.spec.rows) as u64
    }

    /// Useful MACs in one block (column 0 only).
    #[must_use]
    pub fn block_macs(&self) -> u64 {
        (self.b_r * self.spec.rows * self.layer.k() * self.layer.k()) as u64
    }

    /// The tile schedule every block of the layer runs.
    fn mapping(&self) -> MatmulDwcMapping {
        let addr_ofm = self.b_r * self.layer.k() * self.layer.k();
        MatmulDwcMapping::new(self.layer.k(), &self.spec, addr_ofm).with_activation(self.layer.activation())
    }

    /// Block `idx`'s channel and first (row-major) output pixel.
    fn origin(&self, idx: usize) -> (usize, usize) {
        assert!(idx < self.num_blocks(), "block {idx} out of range");
        (idx / self.blocks_p, (idx % self.blocks_p) * self.b_r * self.spec.rows)
    }

    /// Block `idx`'s data-independent geometry: label, tiles, tile latency
    /// and OFM extraction slots (only column 0 of each tile is a real
    /// output).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_blocks()`.
    #[must_use]
    pub fn geometry(&self, idx: usize) -> BlockGeometry {
        let (ch, p0) = self.origin(idx);
        let (nr, nc) = (self.spec.rows, self.spec.cols);
        let ow = self.layer.out_w();
        let pixels = self.layer.out_h() * ow;
        let addr_ofm = self.b_r * self.layer.k() * self.layer.k();
        let mut ofm_slots = Vec::new();
        for g in 0..self.b_r {
            for r in 0..nr {
                let p = p0 + g * nr + r;
                if p >= pixels {
                    continue;
                }
                ofm_slots.push(OfmSlot {
                    bank: r,
                    offset: addr_ofm + g * nc,
                    c: ch,
                    y: p / ow,
                    x: p % ow,
                });
            }
        }
        BlockGeometry {
            label: format!("{}[matmul ch={ch},p={p0}]", self.layer.name()),
            tiles: TilePos::first(self.b_r, 1),
            tile_latency: self.mapping().tile_latency(),
            ofm_slots,
        }
    }

    /// Materialize block `idx` against the *padded* IFM and `(N_i, K, K)`
    /// weights. The im2col rows are generated in place (the host-side
    /// im2col the paper leaves unaccounted for in Table 5).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_blocks()`.
    #[must_use]
    pub fn materialize(&self, idx: usize, padded: &Tensor, weights: &Tensor) -> BlockProgram {
        let (ch, p0) = self.origin(idx);
        let geometry = self.geometry(idx);
        let k = self.layer.k();
        let s = self.layer.s();
        let kk = k * k;
        let ow = self.layer.out_w();
        let pixels = self.layer.out_h() * ow;
        let nr = self.spec.rows;
        let nc = self.spec.cols;
        let addr_ofm = self.b_r * kk;
        let (pc, ph, pw) = padded.shape();
        debug_assert_eq!(pc, self.layer.in_channels());

        // H image: bank r holds the K²-long im2col rows of pixels
        // p0 + g·N_r + r (zero for pixels past the layer).
        let h_banks: Vec<Vec<Word>> = (0..nr)
            .map(|r| {
                let mut bank = vec![0; addr_ofm + self.b_r * nc];
                for g in 0..self.b_r {
                    let p = p0 + g * nr + r;
                    if p >= pixels {
                        continue;
                    }
                    let (oy, ox) = (p / ow, p % ow);
                    for tap in 0..kk {
                        let (ky, kx) = (tap / k, tap % k);
                        let (iy, ix) = (oy * s + ky, ox * s + kx);
                        bank[g * kk + tap] = if iy < ph && ix < pw { padded.get(ch, iy, ix) } else { 0 };
                    }
                }
                bank
            })
            .collect();

        // V image: the kernel column in bank 0 only.
        let mut v_banks = vec![Vec::new(); nc];
        v_banks[0] = (0..kk).map(|tap| weights.get(ch, tap / k, tap % k)).collect();

        BlockProgram {
            label: geometry.label,
            h_banks,
            v_banks,
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
    fn table5_matmul_dwc_utilization() {
        // T = K² + N_c + 1 = 14 on the 4×4; useful MACs = N_r·K² = 36 →
        // util = 36/(16·14) ≈ 16.07 %, the paper's 16.04 % row.
        let m = MatmulDwcMapping::new(3, &spec4(), 0);
        assert_eq!(m.tile_latency(), 14);
        let util: f64 = 36.0 / (16.0 * 14.0);
        assert!((util - 0.1604).abs() < 0.005, "util {util}");
    }

    #[test]
    fn layer_latencies_near_paper() {
        // Paper: 2.82 ms (S=1) and 1.41 ms (S=2) on the 4×4 at 500 MHz.
        let s1 = ConvLayer::depthwise("dw1", 32, 112, 112, 3, 1, 1);
        let s2 = ConvLayer::depthwise("dw2", 64, 112, 112, 3, 2, 1);
        for (layer, lo, hi) in [(&s1, 2.7, 3.0), (&s2, 1.3, 1.5)] {
            let map = MatmulDwcLayerMap::new(layer, &spec4()).unwrap();
            let ms = map.num_blocks() as u64 as f64 * map.block_compute_cycles() as f64 / 500e6 * 1e3;
            assert!((lo..hi).contains(&ms), "{}: {ms} ms", layer.name());
        }
    }

    #[test]
    fn off_column_pes_idle() {
        let m = MatmulDwcMapping::new(3, &spec4(), 0);
        let pos = TilePos::first(1, 1);
        let clock = TileClock::start();
        assert_eq!(m.pe_instruction(clock, pos, 0, 0).op, npcgra_arch::Op::Mul);
        for c in 1..4 {
            assert_eq!(m.pe_instruction(clock, pos, 2, c).op, npcgra_arch::Op::Nop);
        }
        assert_eq!(m.v_request(clock, pos, 1), None);
        assert!(m.v_request(clock, pos, 0).is_some());
    }

    #[test]
    fn rejects_pointwise() {
        let layer = ConvLayer::pointwise("pw", 4, 4, 4, 4);
        assert!(MatmulDwcLayerMap::new(&layer, &spec4()).is_err());
    }

    #[test]
    fn block_geometry_counts() {
        let layer = ConvLayer::depthwise("dw", 3, 8, 8, 3, 1, 1);
        let map = MatmulDwcLayerMap::new(&layer, &spec4()).unwrap();
        assert_eq!(map.num_blocks() % 3, 0);
        let padded = Tensor::random(3, 8, 8, 4).zero_padded(1);
        let b = map.materialize(map.num_blocks() - 1, &padded, &layer.random_weights(2));
        assert_eq!(b.tiles.b_c, 1);
        assert!(b.ofm_slots.iter().all(|s| s.c == 2), "last blocks belong to the last channel");
    }

    #[test]
    fn materialized_block_im2col_rows() {
        let layer = ConvLayer::depthwise("dw", 1, 6, 6, 3, 1, 1);
        let map = MatmulDwcLayerMap::new(&layer, &spec4()).unwrap();
        let ifm = Tensor::random(1, 6, 6, 9);
        let padded = ifm.zero_padded(1);
        let w = layer.random_weights(10);
        let b = map.materialize(0, &padded, &w);
        // Pixel 0's first tap is padding (0); its centre tap (ky=kx=1) is
        // ifm(0,0,0).
        assert_eq!(b.h_banks[0][0], 0);
        assert_eq!(b.h_banks[0][4], ifm.get(0, 0, 0));
        assert_eq!(b.v_banks[0].len(), 9);
        assert!(b.v_banks[1].is_empty());
    }
}
