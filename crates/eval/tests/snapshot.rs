//! The paper's numbers pinned to the digit. `paper_claims.rs` says they
//! agree with the paper; this says they did not move.

use std::collections::HashSet;

use npcgra_eval::{rows, run, tsv, EXPERIMENTS};

const GOLDEN: &str = include_str!("../../../tests/golden/paper.tsv");

#[test]
fn paper_tsv_matches_the_committed_snapshot_exactly() {
    let fresh = tsv();
    let (want, got): (Vec<_>, Vec<_>) = (GOLDEN.lines().collect(), fresh.lines().collect());
    for i in 0..want.len().max(got.len()) {
        let [w, g] = [&want, &got].map(|lines| lines.get(i).copied().unwrap_or("<end of file>"));
        assert!(
            w == g,
            "tests/golden/paper.tsv line {} moved\n  committed: {w}\n  now:       {g}\n\
             if the change is intended, regenerate and review the diff:\n  \
             cargo run -p npcgra-eval -- --tsv > tests/golden/paper.tsv",
            i + 1
        );
    }
    assert_eq!(GOLDEN, fresh, "the snapshot differs only in line endings");
}

/// A re-blessed snapshot cannot hide a formula/simulator split: every
/// Table 3 closed form equals what the mapping, the cycle-accurate
/// simulator or the timing model counts.
#[test]
fn table3_closed_forms_equal_the_counted_cycles() {
    let rows = run("table3").expect("table3 is listed").rows;
    assert_eq!(rows.len(), 10, "4 tiles, 3 simulated layers, 3 Table 5 layers");
    for row in rows {
        let (formula, counted) = (row.formula_cycles, row.compute_cycles);
        assert!(formula.is_some() && formula == counted, "{}", row.tsv());
    }
}

#[test]
fn every_row_key_is_unique() {
    let mut seen = HashSet::new();
    for row in rows() {
        let key = [row.experiment, &row.layer, &row.machine, &row.mapping].map(str::to_string);
        assert!(seen.insert(key), "duplicate key: {}", row.tsv());
    }
}

#[test]
fn every_subcommand_renders() {
    for (name, run) in EXPERIMENTS {
        assert!(!run().text.trim().is_empty(), "`{name}` rendered nothing");
    }
}
