//! The cycle-accurate machine.

use npcgra_agu::{AccessKind, TileClock, TilePos};
use npcgra_arch::{CgraSpec, DualModeMac, GlobalRegFile, Pe, PeInputs};
use npcgra_kernels::{BlockProgram, TileMapping};
use npcgra_mem::{BankedMemory, DmaEngine};
use npcgra_nn::{truncate, Word};

use crate::error::{SimCause, SimError};
use crate::fault::{Fault, FaultDims, FaultSite};
use crate::trace::{BusEvent, CycleTrace, StoreEvent, Trace};

/// What one block run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockResult {
    /// Cycles the array spent computing the block (all tiles).
    pub compute_cycles: u64,
    /// MAC operations performed (MUL initializations count as the first MAC
    /// of a chain).
    pub mac_ops: u64,
    /// DMA engine cycles to bring the block's inputs in.
    pub dma_in_cycles: u64,
    /// DMA engine cycles to write the block's outputs back.
    pub dma_out_cycles: u64,
    /// H-MEM streamed reads served during the block.
    pub h_reads: u64,
    /// H-MEM stores served during the block.
    pub h_writes: u64,
    /// V-MEM streamed reads served during the block.
    pub v_reads: u64,
    /// GRF broadcast reads during the block.
    pub grf_reads: u64,
    /// Extracted valid outputs `(channel, y, x, value)`.
    pub ofm: Vec<(usize, usize, usize, Word)>,
}

/// The simulated machine: PE array + H/V memories + GRF + DMA. It runs one
/// [`BlockProgram`] at a time, applying the structural faults it is handed
/// at their cycles; fault plans, integrity checks, cycle budgets and
/// cancellation belong to the layer runner both tiers share
/// ([`backend_for`](crate::backend_for)).
///
/// # Example
///
/// ```
/// use npcgra_arch::CgraSpec;
/// use npcgra_sim::Machine;
///
/// let m = Machine::new(&CgraSpec::np_cgra(4, 4));
/// assert_eq!(m.spec().num_pes(), 16);
/// ```
#[derive(Debug)]
pub struct Machine {
    spec: CgraSpec,
    pes: Vec<Pe>,
    hmem: BankedMemory,
    vmem: BankedMemory,
    grf: GlobalRegFile,
    dma: DmaEngine,
    mac: DualModeMac,
    /// Faults actually applied so far.
    faults_injected: u64,
}

impl Machine {
    /// Build a machine from its specification.
    #[must_use]
    pub fn new(spec: &CgraSpec) -> Self {
        let dims = FaultDims::for_spec(spec);
        Machine {
            spec: *spec,
            pes: vec![Pe::new(); spec.rows * spec.cols],
            hmem: BankedMemory::new(dims.h_banks, dims.h_words, spec.features.crossbar_vbus),
            vmem: BankedMemory::new(dims.v_banks, dims.v_words, spec.features.crossbar_vbus),
            grf: GlobalRegFile::new(),
            dma: DmaEngine::new(spec),
            mac: DualModeMac::new(spec.mac_mode()),
            faults_injected: 0,
        }
    }

    /// The machine's specification.
    #[must_use]
    pub fn spec(&self) -> &CgraSpec {
        &self.spec
    }

    /// Faults actually applied so far (a scheduled fault that lands in an
    /// out-of-range or unloaded resource is not counted).
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// Flip the bits a fault site names. Returns whether anything changed.
    fn apply_fault(&mut self, site: FaultSite) -> bool {
        match site {
            FaultSite::HBankBit { bank, offset, bit } => flip_mem_bit(&mut self.hmem, bank, offset, bit),
            FaultSite::VBankBit { bank, offset, bit } => flip_mem_bit(&mut self.vmem, bank, offset, bit),
            FaultSite::GrfBit { index, bit } => {
                if index >= self.grf.len() {
                    return false;
                }
                let mut image: Vec<Word> = (0..self.grf.len()).map(|i| self.grf.read(i).expect("valid index")).collect();
                image[index] ^= (1 as Word) << (bit % Word::BITS);
                self.grf.load(&image).is_ok()
            }
            FaultSite::GrfTrim { keep } => {
                if keep >= self.grf.len() {
                    return false;
                }
                let image: Vec<Word> = (0..keep).map(|i| self.grf.read(i).expect("valid index")).collect();
                self.grf.load(&image).is_ok()
            }
            FaultSite::PeOutBit { r, c, bit } => {
                if r >= self.spec.rows || c >= self.spec.cols {
                    return false;
                }
                let pe = &mut self.pes[r * self.spec.cols + c];
                pe.set_out(pe.out() ^ (1 << (bit % Word::BITS)));
                true
            }
            // Temporal faults lose time, not state: the layer runner
            // executes them before the block runs.
            FaultSite::Temporal(_) => false,
        }
    }

    /// Accumulated DMA traffic in bytes.
    #[must_use]
    pub fn dma_bytes(&self) -> u64 {
        self.dma.total_bytes()
    }

    fn load_block(&mut self, program: &BlockProgram) -> Result<u64, SimError> {
        self.hmem.clear();
        self.vmem.clear();
        for (bank, image) in program.h_banks.iter().enumerate() {
            if image.len() > self.hmem.words_per_bank() {
                return Err(SimError::new(
                    &program.label,
                    0,
                    0,
                    SimCause::BankOverflow {
                        vmem: false,
                        bank,
                        need: image.len(),
                        capacity: self.hmem.words_per_bank(),
                    },
                ));
            }
            self.hmem
                .fill_bank(bank, 0, image)
                .map_err(|e| SimError::new(&program.label, 0, 0, SimCause::Mem(e)))?;
        }
        for (bank, image) in program.v_banks.iter().enumerate() {
            if image.len() > self.vmem.words_per_bank() {
                return Err(SimError::new(
                    &program.label,
                    0,
                    0,
                    SimCause::BankOverflow {
                        vmem: true,
                        bank,
                        need: image.len(),
                        capacity: self.vmem.words_per_bank(),
                    },
                ));
            }
            self.vmem
                .fill_bank(bank, 0, image)
                .map_err(|e| SimError::new(&program.label, 0, 0, SimCause::Mem(e)))?;
        }
        self.grf
            .load(&program.grf)
            .map_err(|cap| SimError::new(&program.label, 0, 0, SimCause::GrfIndex(cap)))?;
        Ok(self.dma.load(program.dma_in_words).cycles)
    }

    /// Execute one block with the PE instructions taken from a *compiled
    /// configuration image* — the hardware path: every cycle each PE's
    /// 36-bit word is fetched from configuration memory and decoded
    /// (Fig. 3), rather than asking the mapping oracle. The AGUs, being
    /// counter-driven hardware, are shared with [`Machine::run_block`].
    ///
    /// # Errors
    ///
    /// As [`Machine::run_block`], plus a mapping whose image cannot be
    /// compiled (position-dependent instructions or context overflow).
    pub fn run_block_encoded(&mut self, program: &BlockProgram) -> Result<BlockResult, SimError> {
        let image = npcgra_kernels::ConfigImage::compile(program.mapping.as_ref(), &self.spec)
            .map_err(|e| SimError::new(&program.label, 0, 0, SimCause::Map(e.to_string())))?;
        self.run_block_inner(program, Some(&image), None, &[])
    }

    /// Execute one block cycle-accurately.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the schedule violates any hardware rule
    /// (bank conflicts, missing crossbar, unavailable operand sources,
    /// MAC-mode violations, GRF underflow, bank overflow).
    pub fn run_block(&mut self, program: &BlockProgram) -> Result<BlockResult, SimError> {
        self.run_block_inner(program, None, None, &[])
    }

    /// Execute one block cycle-accurately, flipping each of `faults`' sites
    /// at the start of its `(tile, cycle)`. The faults must be in that
    /// order, as the layer runner's walk lists them; one at a point the
    /// block never reaches is not applied.
    ///
    /// # Errors
    ///
    /// As [`Machine::run_block`]; a flip can make the schedule break a
    /// hardware rule (a GRF trim trips `GrfIndex` at the next broadcast).
    pub fn run_block_with_faults(&mut self, program: &BlockProgram, faults: &[Fault]) -> Result<BlockResult, SimError> {
        self.run_block_inner(program, None, None, faults)
    }

    /// Execute one block while recording a cycle-by-cycle [`Trace`].
    ///
    /// # Errors
    ///
    /// As [`Machine::run_block`].
    pub fn run_block_traced(&mut self, program: &BlockProgram) -> Result<(BlockResult, Trace), SimError> {
        let mut trace = Trace::new(self.spec.cols);
        let result = self.run_block_inner(program, None, Some(&mut trace), &[])?;
        Ok((result, trace))
    }

    fn run_block_inner(
        &mut self,
        program: &BlockProgram,
        image: Option<&npcgra_kernels::ConfigImage>,
        mut trace: Option<&mut Trace>,
        faults: &[Fault],
    ) -> Result<BlockResult, SimError> {
        debug_assert!(
            faults.is_sorted_by_key(|f| (f.tile, f.cycle)),
            "faults in (tile, cycle) order"
        );
        let mut faults = faults.iter().peekable();
        let dma_in_cycles = self.load_block(program)?;
        let (rows, cols) = (self.spec.rows, self.spec.cols);
        let mapping: &dyn TileMapping = program.mapping.as_ref();
        let h_bits = self.hmem.addr_bits();
        let v_bits = self.vmem.addr_bits();

        let mut compute_cycles = 0u64;
        let mut mac_ops = 0u64;
        let mut grf_reads = 0u64;
        let h_reads0 = self.hmem.reads();
        let h_writes0 = self.hmem.writes();
        let v_reads0 = self.vmem.reads();

        let mut pos = TilePos::first(program.tiles.b_r, program.tiles.b_c);
        let mut tile_index = 0usize;
        loop {
            // Weight-Buffer -> GRF refill at tile start (the per-channel
            // kernel switch of the channel-batched DWC extension).
            if !program.weight_buffer.is_empty() {
                let slot = mapping.grf_slot(pos);
                let image = program
                    .weight_buffer
                    .get(slot)
                    .ok_or_else(|| SimError::new(&program.label, tile_index, 0, SimCause::GrfIndex(slot)))?;
                self.grf
                    .load(image)
                    .map_err(|cap| SimError::new(&program.label, tile_index, 0, SimCause::GrfIndex(cap)))?;
            }
            // Run one tile.
            let mut clock = TileClock::start();
            let mut remaining = mapping.phase_len(0).expect("tile has at least one phase");
            let err = |cycle: u64, cause: SimCause| SimError::new(&program.label, tile_index, cycle, cause);
            loop {
                let now = (tile_index, clock.t_cycle);
                while let Some(fault) = faults.next_if(|f| (f.tile, f.cycle) <= now) {
                    if (fault.tile, fault.cycle) == now && self.apply_fault(fault.site) {
                        self.faults_injected += 1;
                    }
                }
                self.hmem.begin_cycle();
                self.vmem.begin_cycle();

                // AGU requests: loads drive the busses, stores are deferred
                // to the end of the cycle.
                let mut h_bus: Vec<Option<i32>> = vec![None; rows];
                let mut stores: Vec<(usize, usize)> = Vec::new();
                let mut h_events: Vec<BusEvent> = Vec::new();
                let mut v_events: Vec<BusEvent> = Vec::new();
                #[allow(clippy::needless_range_loop)] // r is the AGU id, not just an index
                for r in 0..rows {
                    if let Some(req) = mapping.h_request(clock, pos, r) {
                        let addr = req.global_addr(h_bits);
                        match req.kind {
                            AccessKind::Load => {
                                let w = self.hmem.read(r, addr).map_err(|e| err(clock.t_cycle, SimCause::Mem(e)))?;
                                h_bus[r] = Some(i32::from(w));
                                if trace.is_some() {
                                    h_events.push(BusEvent {
                                        lane: r,
                                        bank: req.bank,
                                        offset: req.offset,
                                        value: w,
                                    });
                                }
                            }
                            AccessKind::Store => stores.push((r, addr)),
                        }
                    }
                }
                let mut v_bus: Vec<Option<i32>> = vec![None; cols];
                #[allow(clippy::needless_range_loop)] // c is the AGU id, not just an index
                for c in 0..cols {
                    if let Some(req) = mapping.v_request(clock, pos, c) {
                        let addr = req.global_addr(v_bits);
                        match req.kind {
                            AccessKind::Load => {
                                let w = self.vmem.read(c, addr).map_err(|e| err(clock.t_cycle, SimCause::Mem(e)))?;
                                v_bus[c] = Some(i32::from(w));
                                if trace.is_some() {
                                    v_events.push(BusEvent {
                                        lane: c,
                                        bank: req.bank,
                                        offset: req.offset,
                                        value: w,
                                    });
                                }
                            }
                            AccessKind::Store => stores.push((c, addr)),
                        }
                    }
                }

                // GRF broadcast.
                let grf_val = match mapping.grf_index(clock) {
                    Some(i) => {
                        grf_reads += 1;
                        Some(i32::from(
                            self.grf.read(i).ok_or_else(|| err(clock.t_cycle, SimCause::GrfIndex(i)))?,
                        ))
                    }
                    None => None,
                };

                // Snapshot the synchronous state every PE observes.
                let outs: Vec<i32> = self.pes.iter().map(Pe::out).collect();
                let orns: Vec<Option<i32>> = self.pes.iter().map(Pe::orn).collect();
                let at = |r: isize, c: isize| -> Option<usize> {
                    (r >= 0 && c >= 0 && (r as usize) < rows && (c as usize) < cols).then(|| r as usize * cols + c as usize)
                };

                let mut pe_events: Vec<Option<(npcgra_arch::Instruction, i32)>> = if trace.is_some() {
                    vec![None; rows * cols]
                } else {
                    Vec::new()
                };
                #[allow(clippy::needless_range_loop)] // r/c are PE coordinates fed to the mapping
                for r in 0..rows {
                    for c in 0..cols {
                        // Hardware path (encoded config) or oracle path.
                        let ins = match image {
                            Some(img) => img.instruction_at(clock.t_cycle as usize, r, c),
                            None => mapping.pe_instruction(clock, pos, r, c),
                        };
                        let (ri, ci) = (r as isize, c as isize);
                        let io = PeInputs {
                            h_bus: h_bus[r],
                            v_bus: v_bus[c],
                            grf: grf_val,
                            north: at(ri - 1, ci).map(|i| outs[i]),
                            south: at(ri + 1, ci).map(|i| outs[i]),
                            east: at(ri, ci + 1).map(|i| outs[i]),
                            west: at(ri, ci - 1).map(|i| outs[i]),
                            orn_north: at(ri - 1, ci).and_then(|i| orns[i]),
                            orn_south: at(ri + 1, ci).and_then(|i| orns[i]),
                            orn_east: at(ri, ci + 1).and_then(|i| orns[i]),
                            orn_west: at(ri, ci - 1).and_then(|i| orns[i]),
                        };
                        let out = self.pes[r * cols + c]
                            .step(&ins, &io, self.mac)
                            .map_err(|e| err(clock.t_cycle, SimCause::Pe { r, c, err: e }))?;
                        if matches!(ins.op, npcgra_arch::Op::Mul | npcgra_arch::Op::Mac) {
                            mac_ops += 1;
                        }
                        if trace.is_some() && ins.op != npcgra_arch::Op::Nop {
                            pe_events[r * cols + c] = Some((ins, out.out));
                        }
                        let _ = out;
                    }
                }

                // Stores: the row ports write the designated PE column's
                // (held) output through the AGU-generated addresses.
                let mut store_events: Vec<StoreEvent> = Vec::new();
                if !stores.is_empty() {
                    let port = mapping.store_port(clock).expect("store requests outside a store cycle");
                    for (r, addr) in stores {
                        let data = truncate(self.pes[r * cols + port.column].out());
                        self.hmem
                            .write(r, addr, data)
                            .map_err(|e| err(clock.t_cycle, SimCause::Mem(e)))?;
                        if trace.is_some() {
                            store_events.push(StoreEvent {
                                port: r,
                                bank: addr >> h_bits,
                                offset: addr & ((1 << h_bits) - 1),
                                value: data,
                            });
                        }
                    }
                }

                if let Some(t) = trace.as_deref_mut() {
                    let grf_word = grf_val.map(|v| v as Word);
                    t.push(CycleTrace {
                        tile: tile_index,
                        cycle: clock.t_cycle,
                        h_loads: h_events,
                        v_loads: v_events,
                        grf: grf_word,
                        pes: pe_events,
                        stores: store_events,
                    });
                }

                compute_cycles += 1;

                // Advance the controller counters.
                remaining -= 1;
                if remaining == 0 {
                    match mapping.phase_len(clock.t_wrap + 1) {
                        Some(len) => {
                            clock.step(true);
                            remaining = len;
                        }
                        None => break,
                    }
                } else {
                    clock.step(false);
                }
            }

            tile_index += 1;
            if !pos.advance() {
                break;
            }
        }

        // Extract valid outputs from the H-MEM OFM region.
        let mut ofm = Vec::with_capacity(program.ofm_slots.len());
        for slot in &program.ofm_slots {
            let addr = self.hmem.global_addr(slot.bank, slot.offset);
            let w = self
                .hmem
                .read_free(addr)
                .map_err(|e| SimError::new(&program.label, tile_index, 0, SimCause::Mem(e)))?;
            ofm.push((slot.c, slot.y, slot.x, w));
        }
        let dma_out_cycles = self.dma.store(program.ofm_words).cycles;

        Ok(BlockResult {
            compute_cycles,
            mac_ops,
            dma_in_cycles,
            dma_out_cycles,
            h_reads: self.hmem.reads() - h_reads0,
            h_writes: self.hmem.writes() - h_writes0,
            v_reads: self.vmem.reads() - v_reads0,
            grf_reads,
            ofm,
        })
    }
}

/// Flip one stored bit via the untimed access path (fault injection does
/// not occupy a bus port or count as a timed access).
fn flip_mem_bit(mem: &mut BankedMemory, bank: usize, offset: usize, bit: u32) -> bool {
    if bank >= mem.num_banks() || offset >= mem.words_per_bank() {
        return false;
    }
    let addr = mem.global_addr(bank, offset);
    match mem.read_free(addr) {
        Ok(w) => mem.write_free(addr, w ^ ((1 as Word) << (bit % Word::BITS))).is_ok(),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npcgra_kernels::pwc::PwcLayerMap;
    use npcgra_nn::{reference, ConvLayer, Tensor};

    #[test]
    fn fault_lattice_is_the_memories_geometry_on_every_spec_shape() {
        // Tier parity of seeded fault draws rests on this: the lattice the
        // fast tier derives from the spec alone is the geometry of the
        // memories the cycle tier actually built.
        let mut undivided = CgraSpec::np_cgra(4, 4);
        undivided.vmem_bytes = 0;
        for spec in [
            CgraSpec::table4(),
            CgraSpec::np_cgra(4, 4),
            undivided,
            CgraSpec::baseline(4, 4),
        ] {
            let m = Machine::new(&spec);
            let built = FaultDims {
                rows: spec.rows,
                cols: spec.cols,
                h_banks: m.hmem.num_banks(),
                h_words: m.hmem.words_per_bank(),
                v_banks: m.vmem.num_banks(),
                v_words: m.vmem.words_per_bank(),
            };
            assert_eq!(FaultDims::for_spec(&spec), built, "{spec:?}");
        }
        assert_eq!(
            FaultDims::for_spec(&undivided).v_words,
            undivided.hmem_bytes / undivided.word_bytes / undivided.cols,
            "no V-MEM: the undivided memory viewed column-wise"
        );
    }

    #[test]
    fn single_pwc_block_matches_golden() {
        let spec = CgraSpec::np_cgra(4, 4);
        let layer = ConvLayer::pointwise("pw", 8, 8, 4, 4);
        let map = PwcLayerMap::new(&layer, &spec).unwrap();
        let ifm = Tensor::random(8, 4, 4, 1);
        let w = layer.random_weights(2);
        let golden = reference::run_layer(&layer, &ifm, &w).unwrap();

        let mut m = Machine::new(&spec);
        let mut seen = 0;
        for b in 0..map.num_blocks() {
            let prog = map.materialize(b, &ifm, &w);
            let res = m.run_block(&prog).unwrap();
            assert_eq!(res.compute_cycles, prog.compute_cycles(), "measured cycles equal the plan");
            for (c, y, x, v) in res.ofm {
                assert_eq!(v, golden.get(c, y, x), "output ({c},{y},{x})");
                seen += 1;
            }
        }
        assert_eq!(seen, 8 * 4 * 4, "every output produced exactly once");
    }

    #[test]
    fn traced_execution_records_every_cycle() {
        let spec = CgraSpec::np_cgra(4, 4);
        let layer = ConvLayer::pointwise("pw", 8, 8, 4, 4);
        let map = PwcLayerMap::new(&layer, &spec).unwrap();
        let ifm = Tensor::random(8, 4, 4, 1);
        let w = layer.random_weights(2);
        let prog = map.materialize(0, &ifm, &w);
        let mut m = Machine::new(&spec);
        let (res, trace) = m.run_block_traced(&prog).unwrap();
        assert_eq!(trace.len() as u64, res.compute_cycles, "one trace row per cycle");
        // Stream cycles show H and V loads; store cycles show writes whose
        // count matches the block's OFM region.
        let first = &trace.cycles()[0];
        assert_eq!(first.h_loads.len(), 4);
        assert_eq!(first.v_loads.len(), 4);
        let stored: u64 = trace.store_cycles().map(|c| c.stores.len() as u64).sum();
        assert_eq!(stored, prog.ofm_words);
        // The rendered trace is one line per cycle and mentions MACs.
        let text = trace.to_string();
        assert_eq!(text.lines().count(), trace.len());
        assert!(text.contains("mac"));
    }

    #[test]
    fn encoded_execution_matches_oracle_execution() {
        // Running from compiled+decoded 36-bit configuration words must be
        // bit-identical to running from the mapping oracle.
        let spec = CgraSpec::np_cgra(4, 4);
        let layer = ConvLayer::depthwise("dw", 2, 12, 12, 3, 1, 1);
        let map = npcgra_kernels::dwc_s1::DwcS1LayerMap::new(&layer, &spec).unwrap();
        let ifm = Tensor::random(2, 12, 12, 9);
        let padded = npcgra_kernels::dwc_general::padded_ifm(&layer, &ifm);
        let w = layer.random_weights(10);
        for b in 0..map.num_blocks() {
            let prog = map.materialize(b, &padded, &w);
            let oracle = Machine::new(&spec).run_block(&prog).unwrap();
            let prog2 = map.materialize(b, &padded, &w);
            let encoded = Machine::new(&spec).run_block_encoded(&prog2).unwrap();
            assert_eq!(oracle.ofm, encoded.ofm, "block {b}");
            assert_eq!(oracle.compute_cycles, encoded.compute_cycles);
            assert_eq!(oracle.mac_ops, encoded.mac_ops);
        }
    }

    #[test]
    fn mac_count_equals_layer_macs_for_exact_tiling() {
        // 8 pixels/8 channels on a 4×4: tiling is exact, so the MACs the
        // array performs equal the layer's MAC count.
        let spec = CgraSpec::np_cgra(4, 4);
        let layer = ConvLayer::pointwise("pw", 8, 8, 1, 8);
        let map = PwcLayerMap::new(&layer, &spec).unwrap();
        let ifm = Tensor::random(8, 1, 8, 3);
        let w = layer.random_weights(4);
        let mut m = Machine::new(&spec);
        let mut macs = 0;
        for b in 0..map.num_blocks() {
            macs += m.run_block(&map.materialize(b, &ifm, &w)).unwrap().mac_ops;
        }
        assert_eq!(macs, layer.macs());
    }

    // The cycle tier's liveness: rows of the one liveness table
    // (`exec::runner`'s tests), run on this tier.

    fn cycle_tier_rows(names: &[&str]) {
        crate::exec::runner::tests::check_liveness_rows(names, &[crate::exec::BackendTier::CycleAccurate]);
    }

    #[test]
    fn stall_fault_inflates_cycles_but_not_values() {
        cycle_tier_rows(&["stall"]);
    }

    #[test]
    fn slowdown_fault_multiplies_remaining_tile_cycles() {
        cycle_tier_rows(&["slowdown"]);
    }

    #[test]
    fn cycle_budget_breaks_a_wedge_with_a_typed_error() {
        cycle_tier_rows(&["wedge under budget"]);
    }

    #[test]
    fn cancel_token_breaks_a_wedge() {
        cycle_tier_rows(&["wedge under cancel"]);
    }

    #[test]
    fn pre_cancelled_token_stops_the_run_at_the_block_boundary() {
        cycle_tier_rows(&["pre-cancelled"]);
    }

    #[test]
    fn ample_budget_and_fresh_token_change_nothing() {
        cycle_tier_rows(&["ample budget, fresh token"]);
    }
}
