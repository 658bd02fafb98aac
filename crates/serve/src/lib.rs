//! `npcgra-serve` — a sharded, batching inference server over the
//! cycle-accurate NP-CGRA simulator.
//!
//! The simulator executes one layer at a time; this crate turns it into a
//! multi-tenant service the way a real accelerator deployment would:
//!
//! * **Worker shards** — each worker thread owns one simulated
//!   [`Machine`](npcgra_sim::Machine) and drains a shared work queue, so
//!   throughput scales with host cores exactly as a rack of NP-CGRA boards
//!   would scale with devices.
//! * **Dynamic batching** — dispatch is work-conserving: a free worker
//!   takes the oldest queued request at once, and the same-model backlog
//!   that queued while every worker was busy (up to `max_batch`; an
//!   opt-in `max_linger` waits for more) coalesces with it into one
//!   simulator run. Depthwise requests concatenate along the channel axis
//!   (the §5.4 channel-batched DWC mapping's natural shape), pointwise
//!   requests along the row axis. Batching is bit-exact by construction —
//!   see [`crate::batch`]'s module docs for the argument.
//! * **Compiled-program cache** — mapping a layer (tiling + AGU schedule)
//!   is pure and data-independent, so it happens once per distinct
//!   (layer geometry, machine spec, mapping) configuration and is shared
//!   across shards as an [`Arc<CompiledLayer>`](npcgra_sim::CompiledLayer);
//!   the cache hit rate is reported in the stats.
//! * **Admission control** — a bounded queue sheds load with typed errors
//!   ([`ServeError::QueueFull`]), per-request deadlines are enforced at
//!   batch formation ([`ServeError::DeadlineExceeded`]), and shutdown
//!   drains gracefully.
//! * **Fault tolerance** — worker panics are caught by a supervisor that
//!   rebuilds the shard's machine under a restart budget with jittered
//!   backoff; failed batches bisect to quarantine poison requests
//!   ([`ServeError::Quarantined`]) while their batch-mates complete;
//!   no healthy shard left sheds all load ([`ServeError::Degraded`]);
//!   and [`ChaosConfig`] injects deterministic panics, poison and
//!   simulated-hardware bit flips to drive all of it in tests.
//! * **Gray-failure resilience** ([`crate::watchdog`]) — temporal chaos
//!   faults (wedges, stalls, slowdowns) model shards that go *slow or
//!   stuck* rather than dead; a deterministic per-run cycle budget
//!   ([`ServeConfig::cycle_budget`](crate::ServeConfig)) and a batch
//!   watchdog arming `predicted cycles × calibrated ns-per-cycle ×`
//!   [`watchdog_slack`](crate::ServeConfig) wall deadlines cancel stuck
//!   runs cooperatively ([`ServeError::Preempted`], retryable); a
//!   preempted shard is rebuilt like a panicked one.
//! * **Overload control** ([`crate::overload`]) — requests carry a
//!   [`Priority`] class; weighted-fair dequeue keeps every class moving
//!   while CoDel-style adaptive admission climbs a staged brownout ladder
//!   ([`BrownoutLevel`]) under standing queue delay, shedding lowest class
//!   first ([`ServeError::Overloaded`]).
//! * **Whole-model pipeline serving** ([`crate::pipeline`]) — a
//!   [`CompiledModel`](npcgra_sim::CompiledModel) partitioned into
//!   cycle-balanced stages runs as a [`Pipeline`] of stage-level fault
//!   domains: inter-stage activations carry forwarded checksums, verified
//!   boundaries are checkpointed per job, and a failed stage heals by
//!   replaying only from the last checkpoint — failing over to spare
//!   shards under the restart-budget ladder, and shedding whole-model
//!   traffic ([`ServeError::Degraded`]) before single-layer traffic.
//!   Pipelines ride the same overload/liveness umbrella, armed by the same
//!   [`ServeConfig`] fields (`overload.delay_*`, `watchdog_slack` — one
//!   config surface for both lifecycles): wall deadlines split across stages
//!   proportionally to predicted work (doomed jobs shed at stage
//!   boundaries), per-stage calibrated watchdogs cancel wedged stage runs,
//!   and stage-0 admission runs priority WFQ under a CoDel-driven
//!   pipeline brownout ladder.
//!
//! Everything is std threads and channels — no async runtime.
//!
//! ```
//! use npcgra_nn::{ConvLayer, Tensor};
//! use npcgra_serve::{ServeConfig, Server};
//!
//! let server = Server::start(ServeConfig::default().with_workers(2));
//! let layer = ConvLayer::depthwise("dw", 3, 16, 16, 3, 1, 1);
//! let weights = layer.random_weights(1);
//! let model = server.register("demo", layer, weights).unwrap();
//! let ticket = server.submit(model, Tensor::random(3, 16, 16, 2)).unwrap();
//! let response = ticket.wait().unwrap();
//! assert_eq!(response.output.channels(), 3);
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod batch;
pub mod cache;
pub mod config;
pub(crate) mod domain;
pub mod error;
pub mod journal;
pub mod overload;
pub mod pipeline;
pub(crate) mod retry;
pub mod server;
pub mod stats;
pub(crate) mod supervisor;
pub(crate) mod watchdog;

pub use cache::ProgramCache;
pub use config::{ChaosConfig, CrossCheckCorruption, OverloadConfig, ServeConfig, StageFault};
pub use error::{ForRequest, RetryClass, ServeError};
pub use journal::{JournalConfig, RecoveryReport};
pub use npcgra_sim::{BackendTier, IntegrityMode};
pub use overload::{BrownoutLevel, Priority};
pub use pipeline::{Pipeline, PipelineStatsSnapshot};
pub use server::{ModelId, Response, Server, Ticket};
pub use stats::{StatsSnapshot, TenantHandle, TenantSnapshot, WorkerExit};
