//! The one block loop.
//!
//! Both tiers run a layer through [`Runner::run`]. Per block, in order:
//!
//! 1. advance the run ordinal (the `run` a seeded [`FaultPlan`] hashes, so a
//!    retry of a failed block draws independently);
//! 2. check cancellation;
//! 3. walk the block's `(tile, cycle)` grid through the fault plan once:
//!    temporal faults and the cycle budget give the block's charge or a
//!    typed [`SimError`], and the structural sites are listed;
//! 4. execute the block on its tier with the listed sites (the cycle tier
//!    applies them at their cycles, the fast tier flips them into the
//!    block's OFM slots);
//! 5. verify and heal the block's OFM slots with ABFT ([`crate::integrity`]);
//! 6. fold the block into the double-buffered report.
//!
//! **The walk runs before the block executes.** A cycle-tier block that
//! would both break a hardware rule through a structural flip and run out
//! of budget through a temporal fault reports the budget error.
//! Cancellation is polled at every block boundary and on every walked
//! cycle, stalled and wedged ones included; the cycle-accurate
//! [`Machine`](crate::Machine) itself never polls it.

use npcgra_nn::Tensor;

use crate::cancel::CancelToken;
use crate::compiled::CompiledLayer;
use crate::error::{SimCause, SimError};
use crate::fault::{Fault, FaultDims, FaultPlan, FaultSite, TemporalFault};
use crate::integrity::{self, AbftScratch, IntegrityMode};
use crate::report::LayerReport;
use crate::surface::SurfaceBlock;

/// Wall-clock pace of a wedged run: a [`TemporalFault::Wedge`] makes no
/// simulated progress, so the walk parks between cancellation checks
/// instead of burning a host core. Short enough that a watchdog cancel is
/// observed within a fraction of any realistic deadline.
const WEDGE_PACE: std::time::Duration = std::time::Duration::from_micros(100);

/// The controls both tiers share — fault plan, integrity mode, cancel
/// token, cycle budget — and the counters the block loop keeps.
#[derive(Debug, Default)]
pub(crate) struct Runner {
    pub(crate) plan: Option<FaultPlan>,
    pub(crate) integrity: IntegrityMode,
    pub(crate) cancel: Option<CancelToken>,
    /// Per-block compute-cycle cap; exceeding it is a typed error.
    pub(crate) cycle_budget: Option<u64>,
    /// Blocks run so far: the `run` ordinal fault plans hash.
    runs: u64,
    /// Temporal faults executed so far: stalls served, slowdowns applied,
    /// wedges entered.
    pub(crate) temporal_injected: u64,
    /// The current block's structural fault sites, in walk order (reused,
    /// so a clean block allocates nothing).
    faults: Vec<Fault>,
    /// ABFT working memory, reused across blocks and runs.
    abft: AbftScratch,
}

impl Runner {
    /// Run `compiled` block by block. `ofm` is the tensor the blocks write;
    /// `execute(i, block, faults, ofm)` is step 4 for block `i`: it leaves
    /// the block's words in `ofm` and returns the `(compute, dma)` cycles it
    /// took, to which the walk's temporal charge is added.
    pub(crate) fn run(
        &mut self,
        compiled: &CompiledLayer,
        ifm: &Tensor,
        weights: &Tensor,
        mut ofm: Tensor,
        mut execute: impl FnMut(usize, &SurfaceBlock, &[Fault], &mut Tensor) -> Result<(u64, u64), SimError>,
    ) -> Result<(Tensor, LayerReport), SimError> {
        let (layer, surface) = (compiled.layer(), compiled.surface());
        let dims = FaultDims::for_spec(compiled.spec());
        let mut blocks: Vec<(u64, u64)> = Vec::with_capacity(compiled.num_blocks());
        let (mut checked, mut failed, mut recovered) = (0u64, 0u64, 0u64);
        for (i, block) in surface.blocks()?.iter().enumerate() {
            let label = surface.label(i);
            self.runs += 1;
            check_liveness(self.cancel.as_ref(), None, 0).map_err(|cause| SimError::new(label, 0, 0, cause))?;
            let charge = self.walk(label, block, &dims)?;
            let (compute, dma) = execute(i, block, &self.faults, &mut ofm)?;
            if self.integrity != IntegrityMode::Off {
                checked += 1;
                if let Err(v) = integrity::verify_slots(layer, ifm, weights, &ofm, &block.slots, &mut self.abft) {
                    failed += 1;
                    if self.integrity == IntegrityMode::Verify {
                        return Err(SimError::new(layer.name(), i, 0, SimCause::IntegrityViolation(v)));
                    }
                    integrity::heal_slots(layer, ifm, weights, &mut ofm, &block.slots);
                    recovered += 1;
                }
            }
            blocks.push((compute + (charge - block.compute_cycles()), dma));
        }
        let mut report = compiled.report_from_blocks(&blocks);
        report.integrity_checked = checked;
        report.integrity_failed = failed;
        report.integrity_recovered = recovered;
        Ok((ofm, report))
    }

    /// Step 3: walk `block`'s grid through the plan, executing its temporal
    /// faults under the cycle budget and cancel token, and return the
    /// block's compute charge; its structural sites are left in
    /// `self.faults`. Without a plan the grid is clean and this is the
    /// closed-form charge plus the budget gate.
    fn walk(&mut self, label: &str, block: &SurfaceBlock, dims: &FaultDims) -> Result<u64, SimError> {
        self.faults.clear();
        let clean = block.compute_cycles();
        let Some(plan) = &self.plan else {
            // The budget is checked before each cycle with `spent` = cycles
            // so far, so a clean block of C cycles sees checks at 0..C-1 and
            // fails iff C-1 > budget, at cycle budget + 1.
            return match self.cycle_budget {
                Some(budget) if clean > 0 && clean - 1 > budget => {
                    let spent = budget + 1;
                    let per_tile = block.tile_latency().max(1);
                    let tile = usize::try_from(spent / per_tile).unwrap_or(usize::MAX);
                    Err(SimError::new(
                        label,
                        tile.min(block.tiles().saturating_sub(1)),
                        spent % per_tile,
                        SimCause::CycleBudgetExceeded { budget },
                    ))
                }
                _ => Ok(clean),
            };
        };
        let mut spent = 0u64;
        for tile in 0..block.tiles() {
            // Slowdown factors do not stack and clear at the tile boundary.
            let mut slow_factor = 1u64;
            for cycle in 0..block.tile_latency() {
                let err = |cause: SimCause| SimError::new(label, tile, cycle, cause);
                check_liveness(self.cancel.as_ref(), self.cycle_budget, spent).map_err(err)?;
                for site in plan.sites_at(self.runs, tile, cycle, dims) {
                    let FaultSite::Temporal(fault) = site else {
                        self.faults.push(Fault { tile, cycle, site });
                        continue;
                    };
                    self.temporal_injected += 1;
                    match fault {
                        TemporalFault::Stall { cycles } => {
                            for burned in 0..cycles {
                                spent += 1;
                                check_liveness(self.cancel.as_ref(), self.cycle_budget, spent).map_err(err)?;
                                if burned % 1024 == 1023 {
                                    std::thread::yield_now();
                                }
                            }
                        }
                        TemporalFault::Slowdown { factor } => slow_factor = slow_factor.max(u64::from(factor)),
                        // No simulated progress: only cancellation or the
                        // cycle budget breaks a wedge. With neither installed
                        // this parks forever — the gray failure modelled.
                        TemporalFault::Wedge => loop {
                            spent += 1;
                            check_liveness(self.cancel.as_ref(), self.cycle_budget, spent).map_err(err)?;
                            std::thread::sleep(WEDGE_PACE);
                        },
                    }
                }
                spent += slow_factor;
            }
        }
        Ok(spent)
    }
}

/// The liveness gate: a cancelled token first (a preempted run must report
/// `Cancelled` even if it also blew its budget), then the compute-cycle
/// budget.
fn check_liveness(cancel: Option<&CancelToken>, budget: Option<u64>, spent: u64) -> Result<(), SimCause> {
    if cancel.is_some_and(CancelToken::is_cancelled) {
        return Err(SimCause::Cancelled);
    }
    match budget {
        Some(budget) if spent > budget => Err(SimCause::CycleBudgetExceeded { budget }),
        _ => Ok(()),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::time::Duration;

    use npcgra_arch::CgraSpec;
    use npcgra_nn::{reference, ConvLayer, Tensor};

    use super::*;
    use crate::exec::{backend_for, BackendTier};
    use crate::layer::MappingKind;

    /// When a row's cancel token is raised, if it has one.
    #[derive(Clone, Copy)]
    enum Raise {
        Never,
        BeforeTheRun,
        After(Duration),
    }

    /// One liveness row: a temporal fault at `(tile, cycle)` of every
    /// block, a per-block budget and a cancel token; and what every tier
    /// must give under them — `Ok(extra compute cycles per block)` with the
    /// golden OFM, or `Err((cause, tile, cycle))` — having executed
    /// `temporal` temporal faults.
    struct Row {
        name: &'static str,
        fault: Option<(usize, u64, TemporalFault)>,
        budget: Option<u64>,
        token: Option<Raise>,
        want: Result<u64, (SimCause, usize, u64)>,
        temporal: u64,
    }

    /// The table's layer: 4 blocks of 2 tiles of 13 cycles on the 4×4.
    const BLOCKS: u64 = 4;
    const TILE: u64 = 13;
    const BLOCK: u64 = 2 * TILE;

    fn rows() -> Vec<Row> {
        use TemporalFault::{Slowdown, Stall, Wedge};
        let over = |budget| SimCause::CycleBudgetExceeded { budget };
        #[rustfmt::skip]
        let rows = vec![
            Row { name: "clean", fault: None, budget: None, token: None, want: Ok(0), temporal: 0 },
            // A stall loses time, not data; explicit faults repeat per block.
            Row { name: "stall", fault: Some((0, 2, Stall { cycles: 37 })), budget: None, token: None, want: Ok(37), temporal: BLOCKS },
            // A slowdown multiplies the rest of its tile.
            Row { name: "slowdown", fault: Some((0, 0, Slowdown { factor: 3 })), budget: None, token: None, want: Ok(2 * TILE), temporal: BLOCKS },
            // Stalled cycles count against the budget.
            Row { name: "stall over budget", fault: Some((0, 2, Stall { cycles: 37 })), budget: Some(BLOCK), token: None, want: Err((over(BLOCK), 0, 2)), temporal: 1 },
            Row { name: "wedge under budget", fault: Some((0, 1, Wedge)), budget: Some(64), token: None, want: Err((over(64), 0, 1)), temporal: 1 },
            Row { name: "wedge under cancel", fault: Some((0, 1, Wedge)), budget: None, token: Some(Raise::After(Duration::from_millis(20))), want: Err((SimCause::Cancelled, 0, 1)), temporal: 1 },
            // Cancellation wins over a blown budget, before any cycle runs.
            Row { name: "pre-cancelled", fault: None, budget: Some(0), token: Some(Raise::BeforeTheRun), want: Err((SimCause::Cancelled, 0, 0)), temporal: 0 },
            // Checks see 0..C-1 spent cycles: a budget of C passes ...
            Row { name: "ample budget, fresh token", fault: None, budget: Some(BLOCK), token: Some(Raise::Never), want: Ok(0), temporal: 0 },
            // ... and C-2 fails where C-1 cycles are spent.
            Row { name: "budget two short", fault: None, budget: Some(BLOCK - 2), token: None, want: Err((over(BLOCK - 2), 1, TILE - 1)), temporal: 0 },
        ];
        rows
    }

    #[test]
    fn liveness_table_holds_on_both_tiers() {
        let names: Vec<_> = rows().iter().map(|row| row.name).collect();
        check_liveness_rows(&names, &BackendTier::ALL);
    }

    /// Runs the named rows of the liveness table on `tiers`.
    pub(crate) fn check_liveness_rows(names: &[&str], tiers: &[BackendTier]) {
        let all = rows();
        for name in names {
            assert!(all.iter().any(|row| row.name == *name), "no liveness row `{name}`");
        }
        let spec = CgraSpec::np_cgra(4, 4);
        let layer = ConvLayer::pointwise("pw", 8, 8, 4, 4);
        let compiled = CompiledLayer::compile(&layer, &spec, MappingKind::Auto).unwrap();
        let block = compiled.surface().blocks().unwrap()[0];
        let shape = (
            compiled.num_blocks() as u64,
            block.tile_latency(),
            compiled.block_compute_cycles(),
        );
        assert_eq!(shape, (BLOCKS, TILE, BLOCK), "the table's layer");
        let (ifm, w) = (Tensor::random(8, 4, 4, 1), layer.random_weights(2));
        let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
        for row in all.into_iter().filter(|row| names.contains(&row.name)) {
            // A row without a fault runs with no plan (the closed-form walk)
            // and with an empty one (the per-cycle walk).
            let plans = match row.fault {
                Some((tile, cycle, t)) => vec![Some(FaultPlan::explicit(vec![Fault {
                    tile,
                    cycle,
                    site: FaultSite::Temporal(t),
                }]))],
                None => vec![None, Some(FaultPlan::none())],
            };
            for (plan, &tier) in plans.iter().flat_map(|p| tiers.iter().map(move |tier| (p, tier))) {
                let mut backend = backend_for(tier, &spec);
                backend.set_fault_plan(plan.clone());
                backend.set_cycle_budget(row.budget);
                let token = row.token.map(|_| CancelToken::new());
                backend.set_cancel_token(token.clone());
                let canceller = match (row.token, token) {
                    (Some(Raise::BeforeTheRun), Some(token)) => {
                        token.cancel();
                        None
                    }
                    (Some(Raise::After(delay)), Some(token)) => Some(std::thread::spawn(move || {
                        std::thread::sleep(delay);
                        token.cancel();
                    })),
                    _ => None,
                };
                let got = backend.run_layer(&compiled, &ifm, &w);
                if let Some(canceller) = canceller {
                    canceller.join().unwrap();
                }
                let at = format!("{}: {tier}, plan {}", row.name, plan.is_some());
                match (&got, &row.want) {
                    (Ok((ofm, report)), Ok(extra)) => {
                        assert_eq!(*ofm, golden, "{at}: values are bit-exact");
                        assert_eq!(report.compute_cycles, (BLOCK + extra) * BLOCKS, "{at}");
                    }
                    (Err(e), Err((cause, tile, cycle))) => {
                        assert_eq!((&e.cause, e.tile, e.cycle), (cause, *tile, *cycle), "{at}");
                        assert_eq!(e.block, compiled.surface().label(0), "{at}: fails in block 0");
                    }
                    _ => panic!("{at}: got {got:?}, want {:?}", row.want),
                }
                assert_eq!(backend.temporal_injected(), row.temporal, "{at}");
                assert_eq!(backend.faults_injected(), 0, "{at}: temporal faults are not value faults");
            }
        }
    }

    #[test]
    fn the_walk_runs_before_the_block_executes() {
        // A GRF trim at cycle 0 breaks a hardware rule at the next
        // broadcast; a stall at cycle 1 overruns the budget. The walk runs
        // first, so the budget error is what both tiers report — and
        // without the budget the cycle tier reports the broken rule.
        let spec = CgraSpec::np_cgra(4, 4);
        let layer = ConvLayer::depthwise("dw", 1, 8, 8, 3, 1, 1);
        let compiled = CompiledLayer::compile(&layer, &spec, MappingKind::Auto).unwrap();
        let (ifm, w) = (Tensor::random(1, 8, 8, 5), layer.random_weights(6));
        let at = |cycle, site| Fault { tile: 0, cycle, site };
        let plan = FaultPlan::explicit(vec![
            at(0, FaultSite::GrfTrim { keep: 0 }),
            at(1, FaultSite::Temporal(TemporalFault::Stall { cycles: 1000 })),
        ]);
        let budget = compiled.block_compute_cycles();
        for tier in BackendTier::ALL {
            let mut backend = backend_for(tier, &spec);
            backend.set_fault_plan(Some(plan.clone()));
            backend.set_cycle_budget(Some(budget));
            let err = backend.run_layer(&compiled, &ifm, &w).unwrap_err();
            assert_eq!(err.cause, SimCause::CycleBudgetExceeded { budget }, "{tier}");
        }
        let mut cycle = backend_for(BackendTier::CycleAccurate, &spec);
        cycle.set_fault_plan(Some(plan));
        let err = cycle.run_layer(&compiled, &ifm, &w).unwrap_err();
        assert!(matches!(err.cause, SimCause::GrfIndex(_)), "{err}");
    }
}
