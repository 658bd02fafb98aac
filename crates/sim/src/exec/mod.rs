//! Tiered execution backends.
//!
//! The repro has two ways to run a [`CompiledLayer`]:
//!
//! * the **cycle-accurate tier** — the [`Machine`], where every load
//!   crosses a bus and every cycle is arbitrated. This is the golden tier:
//!   it validates the mapping stack and calibrates everything else.
//! * the **functional fast tier**, which computes the layer as
//!   straight-line tensor arithmetic (bit-exact outputs) and *charges*
//!   cycles from the paper's closed-form latency models (`N_i + λ` for
//!   DWC, `K² + N_c − 1 + λ` for PWC) instead of simulating them.
//!   [`CompiledLayer::timing_report`] proves the two charges agree exactly
//!   on fault-free runs, so `LayerReport` stays meaningful for watchdogs,
//!   cost models and stats.
//!
//! [`ExecutionBackend`] is the common face: the serving stack holds a
//! `Box<dyn ExecutionBackend>` per shard and selects the tier from
//! configuration ([`backend_for`]). Both tiers run a layer through one
//! block loop, so fault plans, integrity modes, cancel tokens and cycle
//! budgets mean the same thing on either: the tiers differ only in how a
//! block executes.

use std::fmt;
use std::str::FromStr;

use npcgra_arch::CgraSpec;
use npcgra_nn::Tensor;

use crate::cancel::CancelToken;
use crate::compiled::CompiledLayer;
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::integrity::IntegrityMode;
use crate::machine::Machine;
use crate::report::LayerReport;

mod fast;
pub(crate) mod runner;

pub use fast::functional_ofm;
pub(crate) use runner::Runner;

/// Which execution tier backs a shard or a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BackendTier {
    /// The cycle-accurate [`Machine`]: every cycle simulated. The default —
    /// untouched configurations behave exactly as before the tiers existed.
    #[default]
    CycleAccurate,
    /// The functional fast tier: bit-exact outputs, analytically charged
    /// cycles.
    Fast,
}

impl BackendTier {
    /// Number of tiers (for per-tier arrays indexed by [`BackendTier::index`]).
    pub const COUNT: usize = 2;

    /// Every tier, in [`BackendTier::index`] order.
    pub const ALL: [BackendTier; Self::COUNT] = [BackendTier::CycleAccurate, BackendTier::Fast];

    /// A dense index for per-tier tables: `CycleAccurate` = 0, `Fast` = 1.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            BackendTier::CycleAccurate => 0,
            BackendTier::Fast => 1,
        }
    }

    /// Stable lower-case name (the CLI flag vocabulary).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BackendTier::CycleAccurate => "cycle-accurate",
            BackendTier::Fast => "fast",
        }
    }
}

impl fmt::Display for BackendTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for BackendTier {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "cycle" | "cycle-accurate" | "accurate" | "golden" => Ok(BackendTier::CycleAccurate),
            "fast" | "functional" => Ok(BackendTier::Fast),
            other => Err(format!(
                "unknown backend tier '{other}' (expected 'cycle-accurate' or 'fast')"
            )),
        }
    }
}

/// A machine-shaped thing that can run compiled layers.
///
/// Both tiers implement this; the serving stack programs them identically
/// (fault plans, integrity mode, cancellation, cycle budgets) and reads the
/// same counters back, so tier selection is invisible to everything above
/// the shard.
pub trait ExecutionBackend: Send {
    /// Which tier this backend is.
    fn tier(&self) -> BackendTier;

    /// The machine specification this backend was built from.
    fn spec(&self) -> &CgraSpec;

    /// Install (or clear) a transient-fault schedule. Later runs suffer
    /// its bit flips and temporal faults; `None` restores fault-free
    /// execution.
    fn set_fault_plan(&mut self, plan: Option<FaultPlan>);

    /// Set the ABFT output-verification mode, applied after every block.
    fn set_integrity_mode(&mut self, mode: IntegrityMode);

    /// The ABFT output-verification mode in effect.
    fn integrity_mode(&self) -> IntegrityMode;

    /// Install (or clear) a cooperative cancellation token, polled at
    /// every block boundary and on every cycle the fault walk visits.
    fn set_cancel_token(&mut self, token: Option<CancelToken>);

    /// Install (or clear) a per-block compute-cycle budget. A block whose
    /// compute cycles (stall and slowdown cycles included) exceed it fails
    /// the run with [`SimCause::CycleBudgetExceeded`](crate::SimCause) —
    /// the deterministic, wall-clock-free liveness backstop.
    fn set_cycle_budget(&mut self, budget: Option<u64>);

    /// Structural faults actually applied so far (a fault that lands in an
    /// out-of-range or unloaded resource is not counted).
    fn faults_injected(&self) -> u64;

    /// Temporal (gray) faults executed so far.
    fn temporal_injected(&self) -> u64;

    /// Run a compiled layer functionally, returning the OFM and report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on hardware-rule violations (cycle tier),
    /// integrity violations under [`IntegrityMode::Verify`], cancellation,
    /// and cycle-budget overruns.
    ///
    /// # Panics
    ///
    /// Panics if `compiled` was compiled for another spec.
    fn run_layer(&mut self, compiled: &CompiledLayer, ifm: &Tensor, weights: &Tensor) -> Result<(Tensor, LayerReport), SimError>;
}

/// A backend of either tier: the block loop's controls and counters, and
/// what executes a block.
#[derive(Debug)]
struct Backend {
    spec: CgraSpec,
    runner: Runner,
    tier: Tier,
}

#[derive(Debug)]
enum Tier {
    /// The cycle-accurate array.
    Cycle(Box<Machine>),
    /// Host arithmetic, counting the structural faults it flipped.
    Fast { flipped: u64 },
}

impl ExecutionBackend for Backend {
    fn tier(&self) -> BackendTier {
        match self.tier {
            Tier::Cycle(_) => BackendTier::CycleAccurate,
            Tier::Fast { .. } => BackendTier::Fast,
        }
    }

    fn spec(&self) -> &CgraSpec {
        &self.spec
    }

    fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.runner.plan = plan;
    }

    fn set_integrity_mode(&mut self, mode: IntegrityMode) {
        self.runner.integrity = mode;
    }

    fn integrity_mode(&self) -> IntegrityMode {
        self.runner.integrity
    }

    fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.runner.cancel = token;
    }

    fn set_cycle_budget(&mut self, budget: Option<u64>) {
        self.runner.cycle_budget = budget;
    }

    fn faults_injected(&self) -> u64 {
        match &self.tier {
            Tier::Cycle(machine) => machine.faults_injected(),
            Tier::Fast { flipped } => *flipped,
        }
    }

    fn temporal_injected(&self) -> u64 {
        self.runner.temporal_injected
    }

    fn run_layer(&mut self, compiled: &CompiledLayer, ifm: &Tensor, weights: &Tensor) -> Result<(Tensor, LayerReport), SimError> {
        assert_eq!(self.spec, *compiled.spec(), "backend/compiled-layer spec mismatch");
        match &mut self.tier {
            Tier::Cycle(machine) => run_cycle(&mut self.runner, machine, compiled, ifm, weights),
            Tier::Fast { flipped } => fast::run(&mut self.runner, flipped, compiled, ifm, weights),
        }
    }
}

/// Run `compiled` on the cycle tier: each block is materialized and
/// simulated on `machine`, which applies the walk's structural faults at
/// their cycles, and its extracted words are scattered into the OFM.
pub(crate) fn run_cycle(
    runner: &mut Runner,
    machine: &mut Machine,
    compiled: &CompiledLayer,
    ifm: &Tensor,
    weights: &Tensor,
) -> Result<(Tensor, LayerReport), SimError> {
    let prepared = compiled.prepare(ifm);
    let layer = compiled.layer();
    let ofm = Tensor::zeros(layer.out_channels(), layer.out_h(), layer.out_w());
    runner.run(compiled, ifm, weights, ofm, |i, _, faults, ofm| {
        let res = machine.run_block_with_faults(&compiled.materialize(i, &prepared, weights), faults)?;
        for (c, y, x, v) in res.ofm {
            ofm.set(c, y, x, v);
        }
        Ok((res.compute_cycles, res.dma_in_cycles + res.dma_out_cycles))
    })
}

/// Build a boxed backend of the requested tier for `spec`.
#[must_use]
pub fn backend_for(tier: BackendTier, spec: &CgraSpec) -> Box<dyn ExecutionBackend> {
    let tier = match tier {
        BackendTier::CycleAccurate => Tier::Cycle(Box::new(Machine::new(spec))),
        BackendTier::Fast => Tier::Fast { flipped: 0 },
    };
    Box::new(Backend {
        spec: *spec,
        runner: Runner::default(),
        tier,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_parses_both_vocabularies() {
        assert_eq!("cycle-accurate".parse::<BackendTier>().unwrap(), BackendTier::CycleAccurate);
        assert_eq!("cycle".parse::<BackendTier>().unwrap(), BackendTier::CycleAccurate);
        assert_eq!("fast".parse::<BackendTier>().unwrap(), BackendTier::Fast);
        assert_eq!("FUNCTIONAL".parse::<BackendTier>().unwrap(), BackendTier::Fast);
        assert!("warp-speed".parse::<BackendTier>().is_err());
    }

    #[test]
    fn tier_display_round_trips() {
        for tier in [BackendTier::CycleAccurate, BackendTier::Fast] {
            assert_eq!(tier.to_string().parse::<BackendTier>().unwrap(), tier);
        }
    }

    #[test]
    fn default_tier_is_cycle_accurate() {
        assert_eq!(BackendTier::default(), BackendTier::CycleAccurate);
        assert_eq!(BackendTier::default().index(), 0);
    }

    #[test]
    fn backend_for_builds_the_requested_tier() {
        let spec = CgraSpec::np_cgra(4, 4);
        assert_eq!(
            backend_for(BackendTier::CycleAccurate, &spec).tier(),
            BackendTier::CycleAccurate
        );
        assert_eq!(backend_for(BackendTier::Fast, &spec).tier(), BackendTier::Fast);
    }
}
