//! Compile-once layer programs.
//!
//! [`CompiledLayer`] is the reusable product of mapping a layer onto a
//! machine: the chosen mapping's tiling, block geometry and AGU schedule,
//! without any feature-map data. Compiling is the expensive, data-independent
//! half of [`run_layer`](crate::run_layer); a `CompiledLayer` can then run
//! any number of inputs, on any [`Machine`] of the same spec, from any
//! thread (it is `Send + Sync`, so serving layers wrap it in an `Arc` and
//! share it across worker shards).
//!
//! The one thing it caches beyond the plan is the
//! [`BlockSurface`](crate::BlockSurface): the blocks' input-independent
//! geometry as the functional fast tier reads it, built by the first
//! fast-tier run rather than by `compile` (which stays as cheap as planning
//! the layer map) and shared by every run after.
//!
//! The whole-layer entry points in [`crate::layer`] are thin wrappers:
//! compile, then run — so the cached path used by `npcgra-serve` is
//! cycle-for-cycle and bit-for-bit the same as the one-shot path the test
//! suite validates.

use std::sync::OnceLock;

use npcgra_arch::CgraSpec;
use npcgra_kernels::dwc_batched::DwcS1BatchedLayerMap;
use npcgra_kernels::dwc_general::{padded_ifm, DwcGeneralLayerMap};
use npcgra_kernels::dwc_s1::DwcS1LayerMap;
use npcgra_kernels::matmul_dwc::MatmulDwcLayerMap;
use npcgra_kernels::pwc::{MapError, PwcLayerMap};
use npcgra_kernels::{BlockGeometry, BlockProgram};
use npcgra_mem::dma::double_buffered_cycles_exact;
use npcgra_mem::DmaEngine;
use npcgra_nn::{ConvKind, ConvLayer, Tensor};

use crate::error::{SimCause, SimError};
use crate::layer::MappingKind;
use crate::machine::Machine;
use crate::report::LayerReport;
use crate::surface::BlockSurface;

/// Which concrete mapping a [`CompiledLayer`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolvedMapping {
    /// Output-stationary pointwise mapping (§5.1).
    Pwc,
    /// Stride-1 depthwise with GRF kernel broadcast (§5.2).
    DwcS1,
    /// General depthwise (any stride/kernel) via V-MEM weights (§5.3).
    DwcGeneral,
    /// Depthwise lowered to matmul (Table 5's middle column).
    MatmulDwc,
    /// Channel-batched stride-1 depthwise (§5.4).
    BatchedDwcS1,
}

enum MapImpl {
    Pwc(PwcLayerMap),
    DwcS1(DwcS1LayerMap),
    DwcGeneral(DwcGeneralLayerMap),
    MatmulDwc(MatmulDwcLayerMap),
    BatchedDwcS1(DwcS1BatchedLayerMap),
}

/// An input prepared for block materialization (depthwise mappings consume
/// a pre-padded IFM; pointwise consumes the raw IFM).
pub struct PreparedIfm<'a>(std::borrow::Cow<'a, Tensor>);

/// A layer compiled onto a machine spec: tiling, block geometry and
/// schedule, ready to run against any number of inputs.
pub struct CompiledLayer {
    layer: ConvLayer,
    spec: CgraSpec,
    map: MapImpl,
    /// The blocks' input-independent geometry, filled by the first run that
    /// asks ([`CompiledLayer::surface`]) — never by `compile`, which stays
    /// as cheap as planning the layer map (boxed, so an unbuilt surface
    /// adds one word to what `compile` returns and moves).
    surface: OnceLock<Box<BlockSurface>>,
}

fn map_err(layer: &ConvLayer, e: MapError) -> SimError {
    SimError::new(layer.name(), 0, 0, SimCause::Map(e.to_string()))
}

impl CompiledLayer {
    /// Map `layer` onto `spec` with the requested mapping.
    ///
    /// `MappingKind::Auto` resolves to the paper's best mapping for the
    /// layer kind, exactly as [`crate::run_layer`] does. Standard
    /// convolution has no direct mapping (it is lowered through im2col by
    /// [`crate::run_standard_via_im2col`]) and is rejected here.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the layer cannot be mapped.
    pub fn compile(layer: &ConvLayer, spec: &CgraSpec, kind: MappingKind) -> Result<Self, SimError> {
        let map = match (kind, layer.kind()) {
            (MappingKind::BatchedDwcS1, ConvKind::Depthwise) => {
                MapImpl::BatchedDwcS1(DwcS1BatchedLayerMap::new(layer, spec).map_err(|e| map_err(layer, e))?)
            }
            (MappingKind::MatmulDwc, ConvKind::Depthwise) => {
                MapImpl::MatmulDwc(MatmulDwcLayerMap::new(layer, spec).map_err(|e| map_err(layer, e))?)
            }
            (_, ConvKind::Pointwise) => MapImpl::Pwc(PwcLayerMap::new(layer, spec).map_err(|e| map_err(layer, e))?),
            // The stride-1 optimized mapping broadcasts the kernel from the
            // GRF, whose 4-bit configuration index holds at most
            // `GRF_WORDS = 16` taps; larger kernels fall back to the
            // general mapping (weights via V-MEM).
            (_, ConvKind::Depthwise) if layer.s() == 1 && layer.k() * layer.k() <= npcgra_arch::grf::GRF_WORDS => {
                MapImpl::DwcS1(DwcS1LayerMap::new(layer, spec).map_err(|e| map_err(layer, e))?)
            }
            (_, ConvKind::Depthwise) => MapImpl::DwcGeneral(DwcGeneralLayerMap::new(layer, spec).map_err(|e| map_err(layer, e))?),
            (_, ConvKind::Standard) => {
                return Err(map_err(
                    layer,
                    MapError::new("standard convolution runs through run_standard_via_im2col"),
                ));
            }
        };
        Ok(CompiledLayer {
            layer: layer.clone(),
            spec: *spec,
            map,
            surface: OnceLock::new(),
        })
    }

    /// The layer this program was compiled from.
    #[must_use]
    pub fn layer(&self) -> &ConvLayer {
        &self.layer
    }

    /// The machine spec this program was compiled for.
    #[must_use]
    pub fn spec(&self) -> &CgraSpec {
        &self.spec
    }

    /// The concrete mapping in use.
    #[must_use]
    pub fn mapping(&self) -> ResolvedMapping {
        match &self.map {
            MapImpl::Pwc(_) => ResolvedMapping::Pwc,
            MapImpl::DwcS1(_) => ResolvedMapping::DwcS1,
            MapImpl::DwcGeneral(_) => ResolvedMapping::DwcGeneral,
            MapImpl::MatmulDwc(_) => ResolvedMapping::MatmulDwc,
            MapImpl::BatchedDwcS1(_) => ResolvedMapping::BatchedDwcS1,
        }
    }

    /// Number of blocks the layer tiles into.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        match &self.map {
            MapImpl::Pwc(m) => m.num_blocks(),
            MapImpl::DwcS1(m) => m.num_blocks(),
            MapImpl::DwcGeneral(m) => m.num_blocks(),
            MapImpl::MatmulDwc(m) => m.num_blocks(),
            MapImpl::BatchedDwcS1(m) => m.num_blocks(),
        }
    }

    /// Array-compute cycles per block.
    #[must_use]
    pub fn block_compute_cycles(&self) -> u64 {
        match &self.map {
            MapImpl::Pwc(m) => m.block_compute_cycles(),
            MapImpl::DwcS1(m) => m.block_compute_cycles(),
            MapImpl::DwcGeneral(m) => m.block_compute_cycles(),
            MapImpl::MatmulDwc(m) => m.block_compute_cycles(),
            MapImpl::BatchedDwcS1(m) => m.block_compute_cycles(),
        }
    }

    /// Words DMA moves into local memory per block.
    #[must_use]
    pub fn block_input_words(&self) -> u64 {
        match &self.map {
            MapImpl::Pwc(m) => m.block_input_words(),
            MapImpl::DwcS1(m) => m.block_input_words(),
            MapImpl::DwcGeneral(m) => m.block_input_words(),
            MapImpl::MatmulDwc(m) => m.block_input_words(),
            MapImpl::BatchedDwcS1(m) => m.block_input_words(),
        }
    }

    /// Words DMA moves out per block.
    #[must_use]
    pub fn block_output_words(&self) -> u64 {
        match &self.map {
            MapImpl::Pwc(m) => m.block_output_words(),
            MapImpl::DwcS1(m) => m.block_output_words(),
            MapImpl::DwcGeneral(m) => m.block_output_words(),
            MapImpl::MatmulDwc(m) => m.block_output_words(),
            MapImpl::BatchedDwcS1(m) => m.block_output_words(),
        }
    }

    /// Block `i`'s data-independent geometry — label, tiles, tile latency
    /// and OFM slots — exactly what [`CompiledLayer::materialize`] builds
    /// its program from.
    #[must_use]
    pub fn geometry(&self, i: usize) -> BlockGeometry {
        match &self.map {
            MapImpl::Pwc(m) => m.geometry(i),
            MapImpl::DwcS1(m) => m.geometry(i),
            MapImpl::DwcGeneral(m) => m.geometry(i),
            MapImpl::MatmulDwc(m) => m.geometry(i),
            MapImpl::BatchedDwcS1(m) => m.geometry(i),
        }
    }

    /// The program's [`BlockSurface`]: every block's geometry with its OFM
    /// slots compressed to runs, built on first call and shared by every
    /// later run on any thread. Whether the blocks partition the OFM is
    /// part of it: [`BlockSurface::blocks`] is an error if they do not.
    pub fn surface(&self) -> &BlockSurface {
        let shape = (self.layer.out_channels(), self.layer.out_h(), self.layer.out_w());
        self.surface
            .get_or_init(|| Box::new(BlockSurface::build(shape, (0..self.num_blocks()).map(|i| self.geometry(i)))))
    }

    /// Prepare an input for [`CompiledLayer::materialize`]: depthwise
    /// mappings consume a pre-padded IFM (built once per input here),
    /// pointwise borrows the raw tensor.
    #[must_use]
    pub fn prepare<'a>(&self, ifm: &'a Tensor) -> PreparedIfm<'a> {
        match &self.map {
            MapImpl::Pwc(_) => PreparedIfm(std::borrow::Cow::Borrowed(ifm)),
            _ => PreparedIfm(std::borrow::Cow::Owned(padded_ifm(&self.layer, ifm))),
        }
    }

    /// Materialize block `i` against a prepared input.
    #[must_use]
    pub fn materialize(&self, i: usize, ifm: &PreparedIfm<'_>, weights: &Tensor) -> BlockProgram {
        match &self.map {
            MapImpl::Pwc(m) => m.materialize(i, &ifm.0, weights),
            MapImpl::DwcS1(m) => m.materialize(i, &ifm.0, weights),
            MapImpl::DwcGeneral(m) => m.materialize(i, &ifm.0, weights),
            MapImpl::MatmulDwc(m) => m.materialize(i, &ifm.0, weights),
            MapImpl::BatchedDwcS1(m) => m.materialize(i, &ifm.0, weights),
        }
    }

    /// Timing-only report: identical cycle accounting to a functional run,
    /// with no data movement.
    #[must_use]
    pub fn timing_report(&self) -> LayerReport {
        let engine = DmaEngine::new(&self.spec);
        let dma_cycles = engine.transfer_cycles(self.block_input_words()) + engine.transfer_cycles(self.block_output_words());
        let compute = self.block_compute_cycles();
        let blocks: Vec<(u64, u64)> = (0..self.num_blocks()).map(|_| (compute, dma_cycles)).collect();
        let mut r = LayerReport::for_spec(self.layer.name(), &self.spec);
        r.cycles = double_buffered_cycles_exact(&blocks);
        r.compute_cycles = compute * self.num_blocks() as u64;
        r.dma_cycles = dma_cycles * self.num_blocks() as u64;
        r.macs = self.layer.macs();
        r
    }

    /// Run the layer functionally on a caller-owned machine, returning the
    /// OFM and performance report: the golden cycle-accurate run, with no
    /// fault plan, integrity check, cycle budget or cancel token (a
    /// [`backend_for`](crate::backend_for) backend carries those).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on any hardware-rule violation, or if the
    /// program's [`BlockSurface`] fails its partition proof.
    ///
    /// # Panics
    ///
    /// Panics if `machine` was built from a different spec.
    pub fn run_on(&self, machine: &mut Machine, ifm: &Tensor, weights: &Tensor) -> Result<(Tensor, LayerReport), SimError> {
        assert_eq!(*machine.spec(), self.spec, "machine/compiled-layer spec mismatch");
        crate::exec::run_cycle(&mut crate::exec::Runner::default(), machine, self, ifm, weights)
    }

    /// Run the layer functionally with blocks distributed over `threads`
    /// scoped worker threads, each with its own scratch [`Machine`].
    /// Blocks are architecturally independent (each begins with a DMA fill
    /// and ends with a drain), so the result is bit-identical to
    /// [`CompiledLayer::run_on`] — while large layers simulate several
    /// times faster on a multicore host. Like [`CompiledLayer::run_on`] it
    /// runs clean; chaos and verified runs go through a
    /// [`backend_for`](crate::backend_for) backend.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on any hardware-rule violation.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics.
    pub fn run_parallel(&self, ifm: &Tensor, weights: &Tensor, threads: usize) -> Result<(Tensor, LayerReport), SimError> {
        let num_blocks = self.num_blocks();
        let threads = threads.clamp(1, num_blocks.max(1));
        if threads == 1 {
            return self.run_on(&mut Machine::new(&self.spec), ifm, weights);
        }
        let prepared = self.prepare(ifm);
        let prepared = &prepared;

        // Each worker runs a disjoint, strided set of blocks.
        let results: Vec<Result<Vec<(usize, crate::machine::BlockResult)>, SimError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mut machine = Machine::new(&self.spec);
                        let mut out = Vec::new();
                        let mut b = t;
                        while b < num_blocks {
                            let prog = self.materialize(b, prepared, weights);
                            out.push((b, machine.run_block(&prog)?));
                            b += threads;
                        }
                        Ok(out)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });

        let mut per_block: Vec<Option<crate::machine::BlockResult>> = (0..num_blocks).map(|_| None).collect();
        for r in results {
            for (b, res) in r? {
                per_block[b] = Some(res);
            }
        }
        let mut ofm = Tensor::zeros(self.layer.out_channels(), self.layer.out_h(), self.layer.out_w());
        let mut blocks: Vec<(u64, u64)> = Vec::with_capacity(num_blocks);
        for res in per_block.into_iter().map(|r| r.expect("all blocks ran")) {
            blocks.push((res.compute_cycles, res.dma_in_cycles + res.dma_out_cycles));
            for (c, y, x, v) in res.ofm {
                ofm.set(c, y, x, v);
            }
        }
        Ok((ofm, self.report_from_blocks(&blocks)))
    }

    /// The layer's report from its blocks' `(compute, dma)` cycles.
    pub(crate) fn report_from_blocks(&self, blocks: &[(u64, u64)]) -> LayerReport {
        let mut report = LayerReport::for_spec(self.layer.name(), &self.spec);
        report.cycles = double_buffered_cycles_exact(blocks);
        report.compute_cycles = blocks.iter().map(|b| b.0).sum();
        report.dma_cycles = blocks.iter().map(|b| b.1).sum();
        report.macs = self.layer.macs();
        report
    }
}

impl std::fmt::Debug for CompiledLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledLayer")
            .field("layer", &self.layer.name())
            .field("mapping", &self.mapping())
            .field("blocks", &self.num_blocks())
            .field("block_compute_cycles", &self.block_compute_cycles())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npcgra_nn::reference;

    fn spec4() -> CgraSpec {
        CgraSpec::np_cgra(4, 4)
    }

    const _: () = {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledLayer>()
    };

    #[test]
    fn compiled_run_matches_one_shot() {
        for layer in [
            ConvLayer::pointwise("pw", 12, 10, 6, 7),
            ConvLayer::depthwise("dw1", 3, 11, 13, 3, 1, 1),
            ConvLayer::depthwise("dw2", 2, 12, 12, 3, 2, 1),
        ] {
            let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 3);
            let w = layer.random_weights(4);
            let compiled = CompiledLayer::compile(&layer, &spec4(), MappingKind::Auto).unwrap();
            let (a, ra) = compiled.run_on(&mut Machine::new(&spec4()), &ifm, &w).unwrap();
            let (b, rb) = crate::layer::run_layer(&layer, &ifm, &w, &spec4()).unwrap();
            assert_eq!(a, b, "{}", layer.name());
            assert_eq!(ra.cycles, rb.cycles, "{}", layer.name());
        }
    }

    #[test]
    fn one_compile_serves_many_inputs_and_machines() {
        let layer = ConvLayer::depthwise("dw", 4, 10, 10, 3, 1, 1);
        let compiled = CompiledLayer::compile(&layer, &spec4(), MappingKind::Auto).unwrap();
        let w = layer.random_weights(1);
        let mut m1 = Machine::new(&spec4());
        let mut m2 = Machine::new(&spec4());
        for seed in 0..4u64 {
            let ifm = Tensor::random(4, 10, 10, seed);
            let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
            let (a, _) = compiled.run_on(&mut m1, &ifm, &w).unwrap();
            let (b, _) = compiled.run_on(&mut m2, &ifm, &w).unwrap();
            assert_eq!(a, golden);
            assert_eq!(b, golden);
        }
    }

    #[test]
    fn parallel_run_is_bit_identical() {
        let layer = ConvLayer::depthwise("dw", 6, 16, 16, 3, 1, 1);
        let ifm = Tensor::random(6, 16, 16, 11);
        let w = layer.random_weights(12);
        let compiled = CompiledLayer::compile(&layer, &spec4(), MappingKind::Auto).unwrap();
        let (seq, rs) = compiled.run_on(&mut Machine::new(&spec4()), &ifm, &w).unwrap();
        let (par, rp) = compiled.run_parallel(&ifm, &w, 4).unwrap();
        assert_eq!(seq, par);
        assert_eq!(rs.cycles, rp.cycles);
    }

    #[test]
    fn timing_report_matches_functional() {
        let layer = ConvLayer::pointwise("pw", 9, 7, 5, 5);
        let compiled = CompiledLayer::compile(&layer, &spec4(), MappingKind::Auto).unwrap();
        let ifm = Tensor::random(9, 5, 5, 1);
        let w = layer.random_weights(2);
        let (_, functional) = compiled.run_on(&mut Machine::new(&spec4()), &ifm, &w).unwrap();
        let timed = compiled.timing_report();
        assert_eq!(functional.cycles, timed.cycles);
        assert_eq!(functional.compute_cycles, timed.compute_cycles);
    }

    #[test]
    fn the_surface_is_lazy_shared_and_never_built_by_compile() {
        let layer = ConvLayer::depthwise("dw", 4, 10, 10, 3, 1, 1);
        let compiled = CompiledLayer::compile(&layer, &spec4(), MappingKind::Auto).unwrap();
        assert!(compiled.surface.get().is_none(), "compile does no surface work");
        let (ifm, w) = (Tensor::random(4, 10, 10, 1), layer.random_weights(2));
        compiled.run_on(&mut Machine::new(&spec4()), &ifm, &w).unwrap();
        let built: *const BlockSurface = compiled.surface.get().expect("the first run builds it").as_ref();
        let blocks = compiled.surface().blocks().unwrap();
        assert_eq!(blocks.len(), compiled.num_blocks());
        assert!(std::ptr::eq(compiled.surface(), built), "built once");
        assert!(blocks.iter().all(|b| b.compute_cycles() == compiled.block_compute_cycles()));
    }

    #[test]
    fn a_surface_that_fails_its_partition_proof_fails_the_run_with_a_typed_error() {
        use crate::exec::{backend_for, BackendTier};
        use crate::integrity::IntegrityMode;
        // A "mapping" whose second block re-extracts the first block's
        // words (and so also leaves a hole): neither tier may run it, in
        // any integrity mode, rather than return a wrong tensor.
        let layer = ConvLayer::depthwise("dw", 2, 8, 8, 3, 1, 1);
        let compiled = CompiledLayer::compile(&layer, &spec4(), MappingKind::Auto).unwrap();
        assert!(compiled.num_blocks() >= 2);
        let broken = BlockSurface::build(
            (2, 8, 8),
            (0..compiled.num_blocks()).map(|i| compiled.geometry(i.saturating_sub(1))),
        );
        compiled.surface.set(Box::new(broken)).expect("surface not built yet");
        let (ifm, w) = (Tensor::random(2, 8, 8, 3), layer.random_weights(4));
        for tier in BackendTier::ALL {
            for mode in [IntegrityMode::Off, IntegrityMode::Verify, IntegrityMode::VerifyAndRecompute] {
                let mut backend = backend_for(tier, &spec4());
                backend.set_integrity_mode(mode);
                let err = backend.run_layer(&compiled, &ifm, &w).unwrap_err();
                assert!(
                    matches!(&err.cause, SimCause::Map(why) if why.contains("extracted twice")),
                    "{tier} {mode:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn standard_layers_are_rejected() {
        let layer = ConvLayer::standard("c", 3, 4, 8, 8, 3, 1, 1, 1);
        let err = CompiledLayer::compile(&layer, &spec4(), MappingKind::Auto).unwrap_err();
        assert!(err.to_string().contains("im2col"));
    }

    #[test]
    fn resolved_mapping_follows_the_paper() {
        let spec = spec4();
        let pw = CompiledLayer::compile(&ConvLayer::pointwise("pw", 8, 8, 4, 4), &spec, MappingKind::Auto).unwrap();
        assert_eq!(pw.mapping(), ResolvedMapping::Pwc);
        let s1 = CompiledLayer::compile(&ConvLayer::depthwise("dw", 2, 8, 8, 3, 1, 1), &spec, MappingKind::Auto).unwrap();
        assert_eq!(s1.mapping(), ResolvedMapping::DwcS1);
        let s2 = CompiledLayer::compile(&ConvLayer::depthwise("dw", 2, 9, 9, 3, 2, 1), &spec, MappingKind::Auto).unwrap();
        assert_eq!(s2.mapping(), ResolvedMapping::DwcGeneral);
        let mm = CompiledLayer::compile(&ConvLayer::depthwise("dw", 2, 9, 9, 3, 1, 1), &spec, MappingKind::MatmulDwc).unwrap();
        assert_eq!(mm.mapping(), ResolvedMapping::MatmulDwc);
    }
}
