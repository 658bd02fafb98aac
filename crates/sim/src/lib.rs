//! Cycle-accurate NP-CGRA simulator (§6.1).
//!
//! [`Machine`] wires together the component models — PEs with dual-mode MACs
//! and the operand reuse network (`npcgra-arch`), banked H-MEM/V-MEM with
//! crossbar and conflict checking (`npcgra-mem`), and the AGU address
//! algorithms (`npcgra-agu`) — and executes the [`BlockProgram`]s produced
//! by the kernel mappings one cycle at a time. Every load really flows
//! H-MEM → bus → PE mux, every reuse really crosses the operand-reuse
//! latches, and every result is stored back through the AGU-generated
//! addresses, so a functional mismatch *anywhere* in the mapping stack
//! surfaces as a wrong output word.
//!
//! [`layer`] runs whole layers: functionally (producing an OFM tensor to
//! compare against the golden reference) or timing-only (same cycle
//! accounting without data movement, for the large evaluation models), with
//! the double-buffered DMA pipeline of Table 4's two memory sets.
//!
//! [`BlockProgram`]: npcgra_kernels::BlockProgram

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod compiled;
pub mod error;
pub mod exec;
pub mod fault;
pub mod integrity;
pub mod layer;
pub mod machine;
pub mod model;
pub mod report;
pub mod surface;
pub mod trace;

pub use cancel::CancelToken;
pub use compiled::{CompiledLayer, PreparedIfm, ResolvedMapping};
pub use error::{SimCause, SimError};
pub use exec::{backend_for, functional_ofm, BackendTier, ExecutionBackend};
pub use fault::{Fault, FaultDims, FaultPlan, FaultSite, GrayRates, TemporalFault};
pub use integrity::{tensor_checksum, CheckKind, IntegrityMode, Violation};
pub use layer::{
    estimate_layer_energy, run_batched_dwc, run_layer, run_layer_parallel, run_matmul_dwc, run_standard_via_im2col, time_layer,
    time_layer_single_buffered, MappingKind,
};
pub use machine::{BlockResult, Machine};
pub use model::{CompiledModel, StagePlan};
pub use report::LayerReport;
pub use surface::{BlockSlots, BlockSurface, Run, SurfaceBlock};
pub use trace::{CycleTrace, Trace};
