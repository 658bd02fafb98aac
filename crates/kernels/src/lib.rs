//! Kernel mappings for NP-CGRA (§IV–V).
//!
//! A *mapping* turns one convolution layer into a stream of CGRA work:
//!
//! 1. a **tiling** ([`tiling`]) that splits the layer into blocks (data that
//!    fits local memory) of tiles (work done simultaneously by the array);
//! 2. **data layouts** ([`layout`]) that place each block's IFM/weight data
//!    into H-MEM/V-MEM bank images exactly as Figs. 9–11 prescribe, so the
//!    AGU algorithms hit the right words with zero bank conflicts;
//! 3. a **tile schedule** (the [`TileMapping`] implementations in [`pwc`],
//!    [`dwc_general`], [`dwc_s1`] and [`matmul_dwc`]) that produces, for
//!    every cycle, each PE's instruction and each AGU's request — the AGU
//!    side delegating to the `npcgra-agu` hardware model.
//!
//! The cycle-accurate simulator (`npcgra-sim`) executes these mappings; the
//! closed-form latency models of Table 3 live in [`perf`] and are validated
//! against the simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod act;
pub mod config;
pub mod dwc_batched;
pub mod dwc_general;
pub mod dwc_s1;
pub mod layout;
pub mod matmul_dwc;
pub mod perf;
pub mod program;
pub mod pwc;
pub mod tiling;

pub use config::{CompileError, ConfigImage, CycleConfig};
pub use dwc_batched::{BatchedDwcS1Mapping, DwcS1BatchedLayerMap};
pub use dwc_general::DwcGeneralMapping;
pub use dwc_s1::DwcS1Mapping;
pub use matmul_dwc::MatmulDwcMapping;
pub use program::{BlockGeometry, BlockProgram, StorePort, TileMapping};
pub use pwc::PwcMapping;
pub use tiling::BlockCfg;
