//! The interface between mappings and the cycle-accurate simulator.
//!
//! A [`BlockProgram`] is everything the machine needs to run one block: the
//! bank images DMA deposits into H-MEM/V-MEM, the GRF contents, the tile
//! sequence, and a [`TileMapping`] that answers per-cycle questions (PE
//! instructions, AGU requests, GRF index, store routing) from the controller
//! counters.

use npcgra_agu::{MemRequest, TileClock, TilePos};
use npcgra_arch::Instruction;
use npcgra_nn::Word;

use crate::layout::OfmSlot;

/// Where a row's store port takes its data in a store cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorePort {
    /// The PE column whose output register is stored this cycle (every row
    /// port stores its own row's PE in that column).
    pub column: usize,
}

/// Per-cycle behaviour of one tile schedule.
///
/// All methods are pure functions of the controller counters, mirroring the
/// hardware: the configuration memory is indexed by the controller, and the
/// AGUs compute addresses from the shared counters.
pub trait TileMapping {
    /// Cycles in counter-phase `t_wrap`, or `None` when the tile is done.
    fn phase_len(&self, t_wrap: u64) -> Option<u64>;

    /// Total tile latency (must equal the sum of `phase_len`s).
    fn tile_latency(&self) -> u64;

    /// The instruction PE `(r, c)` executes this cycle.
    fn pe_instruction(&self, clock: TileClock, pos: TilePos, r: usize, c: usize) -> Instruction;

    /// The H-AGU request of row port `aid_r` this cycle.
    fn h_request(&self, clock: TileClock, pos: TilePos, aid_r: usize) -> Option<MemRequest>;

    /// The V-AGU request of column port `aid_c` this cycle.
    fn v_request(&self, clock: TileClock, pos: TilePos, aid_c: usize) -> Option<MemRequest>;

    /// GRF broadcast index this cycle, if the mapping uses the GRF.
    fn grf_index(&self, _clock: TileClock) -> Option<usize> {
        None
    }

    /// Which Weight-Buffer slot fills the GRF for this tile (ignored when
    /// the block carries no Weight Buffer). Channel-batched DWC switches
    /// kernels per tile through this hook (§5.4).
    fn grf_slot(&self, _pos: TilePos) -> usize {
        0
    }

    /// Store routing for H-store cycles: which PE column drives the row
    /// store ports.
    fn store_port(&self, clock: TileClock) -> Option<StorePort>;

    /// Whether this mapping needs the V-bus/V-MEM extension.
    fn uses_vbus(&self) -> bool {
        true
    }
}

/// The data-independent part of one block: what a layer map's
/// `materialize` yields, minus the memory images. A pure function of
/// (layer, mapping, spec, block index), so it can be computed once per
/// compiled program; `materialize` builds its [`BlockProgram`] from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockGeometry {
    /// Human-readable tag for error messages and traces.
    pub label: String,
    /// Block geometry (tiles).
    pub tiles: TilePos,
    /// Latency of one tile of the block's schedule.
    pub tile_latency: u64,
    /// Where each valid output element rests after the block runs, in
    /// extraction order.
    pub ofm_slots: Vec<OfmSlot>,
}

/// One block of work, ready for the machine.
pub struct BlockProgram {
    /// Human-readable tag for error messages and traces.
    pub label: String,
    /// H-MEM bank images to DMA in (index = bank).
    pub h_banks: Vec<Vec<Word>>,
    /// V-MEM bank images to DMA in (index = bank; empty when unused).
    pub v_banks: Vec<Vec<Word>>,
    /// GRF image (empty when unused).
    pub grf: Vec<Word>,
    /// Weight-Buffer contents: one GRF image per slot. When non-empty, the
    /// controller refills the GRF from slot [`TileMapping::grf_slot`] at
    /// each tile start (the per-channel kernel switch of §5.4).
    pub weight_buffer: Vec<Vec<Word>>,
    /// Block geometry (tiles).
    pub tiles: TilePos,
    /// The per-cycle schedule/AGU oracle.
    pub mapping: Box<dyn TileMapping>,
    /// Where each valid output element rests in the H-MEM OFM region after
    /// the block runs (padding outputs are stored but never extracted).
    pub ofm_slots: Vec<OfmSlot>,
    /// Words DMA moves *in* for this block (IFM + weights; excludes the
    /// zeroed OFM region of the bank images).
    pub dma_in_words: u64,
    /// Words DMA moves *out* (the whole block OFM region, matching the
    /// layer-map timing model).
    pub ofm_words: u64,
}

impl BlockProgram {
    /// Words DMA must move *into* local memory for this block.
    #[must_use]
    pub fn input_words(&self) -> u64 {
        let h: usize = self.h_banks.iter().map(Vec::len).sum();
        let v: usize = self.v_banks.iter().map(Vec::len).sum();
        (h + v + self.grf.len()) as u64
    }

    /// Total compute cycles of the block: tiles × tile latency.
    #[must_use]
    pub fn compute_cycles(&self) -> u64 {
        self.tiles.tiles() as u64 * self.mapping.tile_latency()
    }
}

impl std::fmt::Debug for BlockProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockProgram")
            .field("label", &self.label)
            .field("tiles", &self.tiles)
            .field("compute_cycles", &self.compute_cycles())
            .field("input_words", &self.input_words())
            .field("ofm_words", &self.ofm_words)
            .finish()
    }
}
