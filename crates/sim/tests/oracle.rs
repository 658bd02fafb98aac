//! The benchmark's case sets against the differential oracle
//! (`harness/mod.rs`): the 77 served layers × bursts 1–4 on the 4×4 and the
//! 29 `sim_direct` layers on Table 4, each under every integrity mode. The
//! fast tier runs by default; the cycle-tier leg is `#[ignore]`d (minutes in
//! a debug build) and runs under `scripts/check.sh`. The liveness rows hold
//! the two tiers to one outcome under temporal faults, cycle budgets and
//! cancellation.

mod harness;

use harness::{direct_cases, run_set, served_cases, MODES};
use npcgra_sim::{time_layer, IntegrityMode};

#[test]
fn served_set_holds_the_fast_tier_oracles() {
    let cases = served_cases();
    assert_eq!(cases.len(), 77 * 4 * 3, "77 endpoints, bursts of 1-4, three integrity modes");
    run_set(&cases, false, |_| 0);
}

#[test]
fn direct_set_holds_the_fast_tier_oracles_and_its_cycle_total() {
    let cases = direct_cases();
    assert_eq!(cases.len(), 29 * 3);
    run_set(&cases, false, |_| 0);
    // The benchmark pins the set's simulated time; so does tier-1.
    let layers = cases.iter().step_by(MODES.len());
    let charged: u64 = layers.map(|c| time_layer(&c.layer, &c.spec, c.kind).unwrap().cycles).sum();
    assert_eq!(charged, 2_300_353);
}

#[test]
#[ignore = "cycle-accurate leg: minutes in a debug build; scripts/check.sh runs it in release"]
fn served_set_holds_every_oracle_on_the_cycle_tier() {
    run_set(&served_cases(), true, |c| usize::from(c.mode == IntegrityMode::Off));
}

#[test]
#[ignore = "cycle-accurate leg: minutes in a debug build; scripts/check.sh runs it in release"]
fn direct_set_holds_every_oracle_on_the_cycle_tier() {
    run_set(&direct_cases(), true, |c| usize::from(c.mode == IntegrityMode::Off));
}

#[test]
fn liveness_rows_are_tier_identical() {
    let tally = harness::check_liveness(0..90);
    let covered = [
        tally.ok,
        tally.over_budget,
        tally.cancelled,
        tally.stalls,
        tally.slowdowns,
        tally.wedges,
    ];
    assert!(covered.iter().all(|&n| n > 0), "liveness coverage: {tally:?}");
}
