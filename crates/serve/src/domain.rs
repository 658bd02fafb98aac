//! The supervised fault domain: what a [`Server`](crate::Server) shard and
//! a [`Pipeline`](crate::Pipeline) stage both are.
//!
//! Either lifecycle runs compiled layers on an [`ExecutionBackend`] it
//! must be able to lose: a panic or a liveness preemption leaves simulator
//! state unspecified, so the backend is rebuilt. [`FaultDomain`] owns that
//! backend and the one ladder both walk — rebuild under
//! [`restart_budget`](ServeConfig::restart_budget) after a
//! decorrelated-jitter backoff, then fail over to a spare (a fresh backend
//! and a fresh budget), then report [`Rebuilt::Exhausted`]; counting the
//! outcome and retiring the unit stay with the caller. Beside it, once
//! each: the chaos fault-plan derivation, the per-block cycle budget and
//! the panic-payload message.

use std::time::Duration;

use npcgra_sim::{backend_for, ExecutionBackend, FaultPlan, GrayRates, IntegrityMode};

use crate::config::ServeConfig;

/// ABFT output verification every domain's backend runs under, in both
/// lifecycles: silent corruption becomes a typed, retryable
/// [`ServeError::Integrity`](crate::ServeError::Integrity) instead of a
/// wrong reply; on fault-free hardware the checks always pass and cost
/// O(output) host work per block.
pub(crate) const SHARD_INTEGRITY: IntegrityMode = IntegrityMode::Verify;

/// What one walk of the restart ladder did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rebuilt {
    /// Rebuilt in place; one unit of the restart budget charged.
    Restarted,
    /// Budget exhausted: moved to a spare, which starts a fresh budget.
    FailedOver,
    /// Budget and spares exhausted: nothing rebuilt, the caller retires it.
    Exhausted,
}

/// One unit's backend with its restart/spare ladder and backoff stream.
pub(crate) struct FaultDomain {
    /// Worker index (`Server`) or stage index (`Pipeline`).
    unit: usize,
    spares: usize,
    backend: Box<dyn ExecutionBackend>,
    /// Restarts charged against the budget since the last failover.
    restarts: u32,
    spares_used: usize,
    /// Monotonic rebuild ordinal (never reset) — the fault-plan seed mix,
    /// so every rebuilt or spare backend draws a fresh fault stream.
    generation: u64,
    /// Deterministic per-unit jitter stream (seeded from the unit id, so
    /// units never synchronize their retries).
    backoff_rng: u64,
    /// Previous backoff — the decorrelated-jitter recurrence input.
    prev_backoff: Duration,
}

impl FaultDomain {
    /// A domain for `unit` holding a generation-0 backend and `spares`
    /// failovers (a `Server` shard has none).
    pub(crate) fn new(config: &ServeConfig, unit: usize, spares: usize) -> Self {
        FaultDomain {
            unit,
            spares,
            backend: build_backend(config, unit, 0),
            restarts: 0,
            spares_used: 0,
            generation: 0,
            backoff_rng: backoff_seed(unit),
            prev_backoff: config.restart_backoff,
        }
    }

    pub(crate) fn backend(&mut self) -> &mut dyn ExecutionBackend {
        self.backend.as_mut()
    }

    /// Put the configured chaos plan (this generation's stream, from its
    /// start) back on the backend after a one-shot explicit plan.
    pub(crate) fn restore_fault_plan(&mut self, config: &ServeConfig) {
        self.backend.set_fault_plan(fault_plan(config, self.unit, self.generation));
    }

    /// Walk the ladder one step after a rebuild-class failure: unless all
    /// is exhausted, sleep the backoff and install the next generation.
    pub(crate) fn rebuild(&mut self, config: &ServeConfig) -> Rebuilt {
        self.restarts += 1;
        let outcome = if self.restarts <= config.restart_budget {
            Rebuilt::Restarted
        } else if self.spares_used < self.spares {
            self.spares_used += 1;
            self.restarts = 0;
            Rebuilt::FailedOver
        } else {
            return Rebuilt::Exhausted;
        };
        let base = config.restart_backoff;
        if !base.is_zero() {
            self.backoff_rng = splitmix64(self.backoff_rng);
            let backoff = decorrelated_backoff(base, base * 64, self.prev_backoff, self.backoff_rng);
            self.prev_backoff = backoff;
            std::thread::sleep(backoff);
        }
        self.generation += 1;
        self.backend = build_backend(config, self.unit, self.generation);
        outcome
    }
}

/// A fresh backend of the configured tier for `(unit, generation)`,
/// verifying its outputs and carrying the chaos fault plan when one is
/// configured — on either tier, which speak the same fault-plan dialect.
fn build_backend(config: &ServeConfig, unit: usize, generation: u64) -> Box<dyn ExecutionBackend> {
    let mut backend = backend_for(config.backend_tier, &config.spec);
    backend.set_integrity_mode(SHARD_INTEGRITY);
    backend.set_fault_plan(fault_plan(config, unit, generation));
    backend
}

/// The plan seed for `(unit, generation)`: splitmix64-style odd constants
/// mix both in, so units and rebuilds draw independent fault streams, yet
/// a whole run is reproducible from `ChaosConfig::fault_seed` alone.
fn fault_seed_mix(seed: u64, unit: usize, generation: u64) -> u64 {
    seed ^ (unit as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ generation.wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// The configured chaos plan for `(unit, generation)`: gray (temporal
/// faults alongside any bit-flip rate, one seeded plan) when `gray_rate`
/// is set, Bernoulli bit flips otherwise, none without a seed or a rate.
fn fault_plan(config: &ServeConfig, unit: usize, generation: u64) -> Option<FaultPlan> {
    let chaos = &config.chaos;
    let seed = chaos.fault_seed?;
    if chaos.fault_rate <= 0.0 && chaos.gray_rate <= 0.0 {
        return None;
    }
    let mix = fault_seed_mix(seed, unit, generation);
    Some(if chaos.gray_rate > 0.0 {
        FaultPlan::gray(
            mix,
            chaos.fault_rate,
            GrayRates {
                rate: chaos.gray_rate,
                stall_cycles: chaos.gray_stall_cycles,
                slowdown_factor: chaos.gray_slowdown_factor,
            },
        )
    } else {
        FaultPlan::bernoulli(mix, chaos.fault_rate)
    })
}

/// The deterministic cycle budget for one `run_block` call costing
/// `block_cycles` (so it scales with the block, not the whole layer); +1
/// keeps a healthy exact-cost run strictly inside. `None` = no budget.
pub(crate) fn cycle_budget(block_cycles: u64, multiplier: f64) -> Option<u64> {
    (multiplier > 0.0 && block_cycles > 0).then(|| ((block_cycles as f64 * multiplier).ceil() as u64).max(block_cycles + 1))
}

/// The message of a caught panic's payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// SplitMix64's finalizer — the repo's standard cheap deterministic hash.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The unit's deterministic jitter-stream seed: a function of the unit id
/// alone, so a restarted fleet replays the same (decorrelated) backoff
/// schedule run after run.
fn backoff_seed(unit: usize) -> u64 {
    splitmix64(0xB0_FF ^ (unit as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Decorrelated-jitter backoff (the classic "full jitter, previous-sleep
/// coupled" recurrence): uniform in `[base, prev × 3]`, capped. Unlike
/// plain exponential backoff it never synchronizes a fleet of restarting
/// units into retry convoys — each unit's draw decorrelates from both its
/// own history and its peers'.
fn decorrelated_backoff(base: Duration, cap: Duration, prev: Duration, draw: u64) -> Duration {
    let lo = base.as_nanos() as u64;
    let hi = (prev.as_nanos() as u64).saturating_mul(3).max(lo.saturating_add(1));
    let span = hi - lo;
    Duration::from_nanos(lo + draw % span).min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use npcgra_arch::CgraSpec;

    /// The backoff sequence a unit would sleep through `n` consecutive
    /// restarts, reproduced from the pure recurrence.
    fn backoff_sequence(unit: usize, base: Duration, n: usize) -> Vec<Duration> {
        let cap = base * 64;
        let mut rng = backoff_seed(unit);
        let mut prev = base;
        (0..n)
            .map(|_| {
                rng = splitmix64(rng);
                prev = decorrelated_backoff(base, cap, prev, rng);
                prev
            })
            .collect()
    }

    #[test]
    fn backoff_jitter_is_deterministic_per_shard() {
        let base = Duration::from_millis(1);
        assert_eq!(
            backoff_sequence(0, base, 8),
            backoff_sequence(0, base, 8),
            "same shard, same schedule — the fleet replays from seeds alone"
        );
    }

    #[test]
    fn backoff_jitter_diverges_across_shards() {
        // Two shards restarting in lockstep must not sleep in lockstep:
        // their jitter streams are seeded from distinct shard ids.
        let base = Duration::from_millis(1);
        let a = backoff_sequence(0, base, 8);
        let b = backoff_sequence(1, base, 8);
        assert_ne!(a, b, "shards 0 and 1 drew identical backoff schedules");
        let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert!(differing >= 6, "schedules nearly synchronized: {a:?} vs {b:?}");
    }

    #[test]
    fn backoff_respects_base_and_cap() {
        let base = Duration::from_millis(1);
        let cap = base * 64;
        for worker in 0..4 {
            for d in backoff_sequence(worker, base, 32) {
                assert!(d >= base, "below base: {d:?}");
                assert!(d <= cap, "above cap: {d:?}");
            }
        }
    }

    #[test]
    fn backoff_handles_degenerate_inputs() {
        // prev = 0 (first restart with a zero-history shard) still yields
        // something in [base, cap]; a zero base collapses to zero-ish
        // waits without dividing by zero.
        let base = Duration::from_micros(100);
        let d = decorrelated_backoff(base, base * 64, Duration::ZERO, 0xDEAD_BEEF);
        assert!(d >= base);
        let z = decorrelated_backoff(Duration::ZERO, Duration::ZERO, Duration::ZERO, 7);
        assert_eq!(z, Duration::ZERO);
    }

    #[test]
    fn fault_seed_derivation_is_pinned_and_shared_by_both_lifecycles() {
        // Literals from the formula both lifecycles carried before they
        // shared it: a reshuffled stream would change every chaos soak.
        assert_eq!(fault_seed_mix(1, 0, 0), 0x9E37_79B9_7F4A_7C14);
        assert_eq!(fault_seed_mix(0xC0_FFEE, 2, 3), 0xE4AE_BB6B_2BB1_3AFA);
        // A `Server` domain keys its plan on (worker, restart ordinal), a
        // `Pipeline` domain on (stage, rebuild ordinal); the `ChaosConfig`
        // alone decides the kind.
        let kind = |fault_seed, fault_rate, gray_rate| {
            let mut cfg = ServeConfig::for_spec(&CgraSpec::np_cgra(4, 4));
            (cfg.chaos.fault_seed, cfg.chaos.fault_rate, cfg.chaos.gray_rate) = (fault_seed, fault_rate, gray_rate);
            format!("{:?}", fault_plan(&cfg, 1, 2))
        };
        assert_eq!(kind(None, 1e-4, 1e-3), "None", "no seed, no plan");
        assert_eq!(kind(Some(7), 0.0, 0.0), "None", "a seed with both rates 0 plans nothing");
        assert!(kind(Some(7), 1e-4, 0.0).contains("Bernoulli"));
        assert!(kind(Some(7), 1e-4, 1e-3).contains("Gray"));
        assert!(kind(Some(7), 0.0, 1e-3).contains("Gray"), "gray alone still plans");
    }

    #[test]
    fn ladder_walks_restarts_then_spares_then_exhausts() {
        use Rebuilt::{Exhausted, FailedOver, Restarted};
        let cfg = ServeConfig::for_spec(&CgraSpec::np_cgra(4, 4))
            .with_restart_backoff(Duration::ZERO)
            .with_restart_budget(2);
        // Each step's outcome, with the generation and restart count after.
        let walk = |spares: usize, steps: usize| {
            let mut domain = FaultDomain::new(&cfg, 0, spares);
            let steps = (0..steps).map(|_| (domain.rebuild(&cfg), domain.generation, domain.restarts));
            steps.collect::<Vec<_>>()
        };
        // The `Pipeline` shape: each spare brings a fresh budget, and every
        // rebuild that happens draws a new generation.
        assert_eq!(
            walk(1, 6),
            [
                (Restarted, 1, 1),
                (Restarted, 2, 2),
                (FailedOver, 3, 0),
                (Restarted, 4, 1),
                (Restarted, 5, 2),
                (Exhausted, 5, 3)
            ]
        );
        // The `Server` shape: no spares, so the generation feeding the seed
        // mix is the restart ordinal.
        assert_eq!(walk(0, 3), [(Restarted, 1, 1), (Restarted, 2, 2), (Exhausted, 2, 3)]);
    }
}
