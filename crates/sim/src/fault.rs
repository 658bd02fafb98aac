//! Deterministic hardware fault injection.
//!
//! A [`FaultPlan`] installed on a backend ([`crate::backend_for`])
//! schedules transient bit flips at `(tile, cycle)` points of a block run: in the
//! H-MEM/V-MEM bank arrays, in the GRF broadcast words, or in a PE's
//! accumulator (output register). A fault either corrupts the output
//! *silently* (data bit flips — the layouts carry no redundancy, so the
//! flip propagates to some OFM word) or trips one of the existing
//! [`SimError`](crate::SimError) hardware rules (e.g. a GRF validity fault
//! surfaces as `GrfIndex` at the next broadcast). Both behaviours are the
//! point: a serving stack above the simulator must survive each.
//!
//! Plans come in three flavours:
//!
//! * [`FaultPlan::explicit`] — a hand-written fault list, for tests that
//!   need one precise flip at one precise point.
//! * [`FaultPlan::bernoulli`] — a seeded per-cycle coin flip. The draw at
//!   each `(run, tile, cycle)` point is a pure hash of the seed, so a
//!   whole chaos run is **bit-identical across executions with the same
//!   seed**, while a *retry* of a failed block (a later `run` ordinal on
//!   the same backend) sees an independent draw — exactly how transient
//!   faults behave in time.
//! * [`FaultPlan::gray`] — Bernoulli bit flips plus an independent seeded
//!   draw of *temporal* faults ([`TemporalFault`]): stalls, slowdowns and
//!   wedges that lose **time** instead of corrupting **values** — the
//!   gray-failure class. The same purity holds: every draw is a hash of
//!   `(seed, run, tile, cycle)`.
//!
//! The block loop both tiers share walks a block's grid through the plan
//! once, before the block executes: it executes the temporal faults and
//! hands the structural sites to the tier. Nothing here costs anything
//! when no plan is installed: the walk is then the closed-form charge.

use npcgra_arch::CgraSpec;
use npcgra_nn::Word;

/// A temporal (gray) fault: the tile loses time instead of corrupting
/// data. Values stay bit-exact; *liveness* is what breaks. A run escapes
/// these only through its cooperative [`CancelToken`](crate::CancelToken)
/// or cycle budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemporalFault {
    /// The tile stalls for `cycles` extra cycles before this cycle
    /// executes; the stall cycles are charged to the run's cycle budget.
    Stall {
        /// Extra cycles burned.
        cycles: u64,
    },
    /// The tile wedges: no forward progress until cancelled or the cycle
    /// budget runs out. Without either installed the run never returns —
    /// exactly the hazard the serving watchdog exists to break.
    Wedge,
    /// Every remaining cycle of the current tile costs `factor` cycles.
    /// Factors from concurrent slowdown faults do not stack; the largest
    /// wins until the tile ends.
    Slowdown {
        /// Cycle-cost multiplier (values below 2 are inert).
        factor: u32,
    },
}

/// Where a scheduled fault lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Flip bit `bit` of the H-MEM word at `(bank, offset)`.
    HBankBit {
        /// H-MEM bank (row) index.
        bank: usize,
        /// Word offset within the bank.
        offset: usize,
        /// Bit position within the word.
        bit: u32,
    },
    /// Flip bit `bit` of the V-MEM word at `(bank, offset)`.
    VBankBit {
        /// V-MEM bank (column) index.
        bank: usize,
        /// Word offset within the bank.
        offset: usize,
        /// Bit position within the word.
        bit: u32,
    },
    /// Flip bit `bit` of loaded GRF word `index` (no-op past the valid
    /// length — the flip lands in an unused register).
    GrfBit {
        /// GRF word index.
        index: usize,
        /// Bit position within the word.
        bit: u32,
    },
    /// Clear the GRF valid length down to `keep` words: the next broadcast
    /// of a higher index trips the `GrfIndex` hardware rule — the
    /// *detected*-fault path.
    GrfTrim {
        /// Valid words to keep.
        keep: usize,
    },
    /// Flip bit `bit` of the output register (MAC accumulator) of PE
    /// `(r, c)`.
    PeOutBit {
        /// PE row.
        r: usize,
        /// PE column.
        c: usize,
        /// Bit position within the accumulator's low word.
        bit: u32,
    },
    /// A temporal fault: the site loses time, not data.
    Temporal(TemporalFault),
}

/// One scheduled fault: a [`FaultSite`] applied at the start of `cycle` of
/// `tile` — in an explicit plan, of every block run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Tile index within the block.
    pub tile: usize,
    /// Cycle within the tile (the fault applies before the cycle executes).
    pub cycle: u64,
    /// Where the flip lands.
    pub site: FaultSite,
}

/// Array/memory dimensions a plan draws random sites from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDims {
    /// PE rows.
    pub rows: usize,
    /// PE columns.
    pub cols: usize,
    /// H-MEM banks.
    pub h_banks: usize,
    /// Words per H-MEM bank.
    pub h_words: usize,
    /// V-MEM banks.
    pub v_banks: usize,
    /// Words per V-MEM bank.
    pub v_words: usize,
}

impl FaultDims {
    /// The fault lattice of a machine built from `spec` — the one
    /// derivation both tiers draw from (the cycle tier also sizes its
    /// memories from it), so a seeded plan lands on the same sites
    /// whichever tier replays it. A spec without a separate V-MEM
    /// (`vmem_bytes == 0`) views the undivided local memory column-wise.
    #[must_use]
    pub fn for_spec(spec: &CgraSpec) -> Self {
        let v_bytes = if spec.vmem_bytes == 0 {
            spec.hmem_bytes
        } else {
            spec.vmem_bytes
        };
        FaultDims {
            rows: spec.rows,
            cols: spec.cols,
            h_banks: spec.rows,
            h_words: (spec.hmem_bytes / spec.word_bytes / spec.rows).max(1),
            v_banks: spec.cols,
            v_words: (v_bytes / spec.word_bytes / spec.cols).max(1),
        }
    }
}

/// Shape of the temporal faults a [`FaultPlan::gray`] plan draws.
#[derive(Debug, Clone, Copy)]
pub struct GrayRates {
    /// Per-`(run, tile, cycle)` probability of a temporal fault
    /// (clamped to `[0, 1]`).
    pub rate: f64,
    /// Stall length for [`TemporalFault::Stall`] draws.
    pub stall_cycles: u64,
    /// Cycle-cost multiplier for [`TemporalFault::Slowdown`] draws.
    pub slowdown_factor: u32,
}

#[derive(Debug, Clone)]
enum Mode {
    Explicit(Vec<Fault>),
    Bernoulli {
        seed: u64,
        /// Fire when the (run, tile, cycle) hash falls below this.
        threshold: u64,
    },
    Gray {
        seed: u64,
        /// Bit-flip threshold (as in `Bernoulli`).
        flip_threshold: u64,
        /// Temporal-fault threshold for an independent salted draw.
        temporal_threshold: u64,
        stall_cycles: u64,
        slowdown_factor: u32,
    },
}

/// A deterministic schedule of transient hardware faults.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    mode: Mode,
}

/// `splitmix64` — tiny, fast, well-mixed; the standard seeding PRNG. The
/// crate's one copy: fault draws, the fast tier's flip placement and
/// [`tensor_checksum`](crate::integrity::tensor_checksum) all mix with it.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Salt separating the temporal draw from the bit-flip draw at the same
/// `(run, tile, cycle)` point.
const TEMPORAL_SALT: u64 = 0x6E_A4_17;

fn rate_to_threshold(rate: f64) -> u64 {
    let rate = rate.clamp(0.0, 1.0);
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let threshold = (rate * u64::MAX as f64) as u64;
    threshold
}

impl FaultPlan {
    /// A plan that schedules nothing: every query returns no sites. The
    /// explicit fault-free control for chaos runs that arm the watchdog
    /// but must observe zero preemptions.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            mode: Mode::Explicit(Vec::new()),
        }
    }

    /// A plan that applies exactly the given faults, at their `(tile,
    /// cycle)` points, on every block run.
    #[must_use]
    pub fn explicit(faults: Vec<Fault>) -> Self {
        FaultPlan {
            mode: Mode::Explicit(faults),
        }
    }

    /// A seeded Bernoulli plan: each `(run, tile, cycle)` point of every
    /// block run suffers one random-site fault with probability `rate`
    /// (clamped to `[0, 1]`). Fully deterministic in `seed`.
    #[must_use]
    pub fn bernoulli(seed: u64, rate: f64) -> Self {
        FaultPlan {
            mode: Mode::Bernoulli {
                seed,
                threshold: rate_to_threshold(rate),
            },
        }
    }

    /// A gray-failure plan: Bernoulli bit flips at `flip_rate` plus an
    /// independent salted draw of temporal faults at `gray.rate`. A
    /// temporal draw picks its kind from the same hash — mostly stalls,
    /// some slowdowns, rare wedges — so one seed reproduces the whole
    /// mixed soak.
    #[must_use]
    pub fn gray(seed: u64, flip_rate: f64, gray: GrayRates) -> Self {
        FaultPlan {
            mode: Mode::Gray {
                seed,
                flip_threshold: rate_to_threshold(flip_rate),
                temporal_threshold: rate_to_threshold(gray.rate),
                stall_cycles: gray.stall_cycles.max(1),
                slowdown_factor: gray.slowdown_factor.max(2),
            },
        }
    }

    /// The sites scheduled at `(run, tile, cycle)`. Empty in the (vastly
    /// common) no-fault case; never allocates unless a fault fires. A pure
    /// function of `(plan, run, tile, cycle, dims)`: repeated calls and
    /// plan clones agree bit-for-bit.
    #[must_use]
    pub fn sites_at(&self, run: u64, tile: usize, cycle: u64, dims: &FaultDims) -> Vec<FaultSite> {
        match &self.mode {
            Mode::Explicit(faults) => {
                if faults.is_empty() {
                    return Vec::new();
                }
                faults
                    .iter()
                    .filter(|f| f.tile == tile && f.cycle == cycle)
                    .map(|f| f.site)
                    .collect()
            }
            Mode::Bernoulli { seed, threshold } => {
                let x = point_hash(*seed, run, tile, cycle);
                if x >= *threshold {
                    return Vec::new();
                }
                vec![random_site(splitmix64(x ^ 0xFA_0175), dims)]
            }
            Mode::Gray {
                seed,
                flip_threshold,
                temporal_threshold,
                stall_cycles,
                slowdown_factor,
            } => {
                let x = point_hash(*seed, run, tile, cycle);
                let mut sites = Vec::new();
                if x < *flip_threshold {
                    sites.push(random_site(splitmix64(x ^ 0xFA_0175), dims));
                }
                let t = splitmix64(x ^ TEMPORAL_SALT);
                if t < *temporal_threshold {
                    sites.push(FaultSite::Temporal(random_temporal(
                        splitmix64(t ^ 0x7E3),
                        *stall_cycles,
                        *slowdown_factor,
                    )));
                }
                sites
            }
        }
    }
}

/// The shared `(seed, run, tile, cycle)` point hash every stochastic mode
/// draws from.
fn point_hash(seed: u64, run: u64, tile: usize, cycle: u64) -> u64 {
    let mut x = seed;
    x = splitmix64(x ^ run);
    x = splitmix64(x ^ tile as u64);
    x = splitmix64(x ^ cycle);
    x
}

/// Derive a temporal fault kind from hash bits: mostly stalls, some
/// slowdowns, rare wedges — wedges are the expensive recovery path, so
/// they stay the minority of a soak the way genuinely hung devices do.
fn random_temporal(h: u64, stall_cycles: u64, slowdown_factor: u32) -> TemporalFault {
    match h % 10 {
        0..=5 => TemporalFault::Stall { cycles: stall_cycles },
        6..=8 => TemporalFault::Slowdown { factor: slowdown_factor },
        _ => TemporalFault::Wedge,
    }
}

/// Derive a random fault site from hash bits. Site kinds are weighted
/// towards the data arrays (silent corruption), with a small share of GRF
/// validity faults (the detected-error path).
fn random_site(h: u64, dims: &FaultDims) -> FaultSite {
    let bit = (h >> 8) as u32 % Word::BITS;
    let a = splitmix64(h) as usize;
    let b = splitmix64(h ^ 0xB00) as usize;
    match h % 100 {
        0..=34 => FaultSite::HBankBit {
            bank: a % dims.h_banks,
            offset: b % dims.h_words,
            bit,
        },
        35..=59 => FaultSite::VBankBit {
            bank: a % dims.v_banks,
            offset: b % dims.v_words,
            bit,
        },
        60..=74 => FaultSite::GrfBit {
            index: a % npcgra_arch::grf::GRF_WORDS,
            bit,
        },
        75..=79 => FaultSite::GrfTrim {
            keep: a % npcgra_arch::grf::GRF_WORDS / 2,
        },
        _ => FaultSite::PeOutBit {
            r: a % dims.rows,
            c: b % dims.cols,
            bit,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_is_the_reference_mixer() {
        // The first two outputs of the reference generator seeded with 0.
        // Fault draws, fast-tier flip placement and `tensor_checksum` all
        // hash through this one function, so their outputs move only if
        // this does.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
    }

    fn dims() -> FaultDims {
        FaultDims {
            rows: 4,
            cols: 4,
            h_banks: 4,
            h_words: 64,
            v_banks: 4,
            v_words: 64,
        }
    }

    #[test]
    fn explicit_faults_fire_only_at_their_point() {
        let site = FaultSite::GrfTrim { keep: 2 };
        let plan = FaultPlan::explicit(vec![Fault {
            tile: 3,
            cycle: 17,
            site,
        }]);
        assert_eq!(plan.sites_at(0, 3, 17, &dims()), vec![site]);
        assert_eq!(
            plan.sites_at(9, 3, 17, &dims()),
            vec![site],
            "explicit faults repeat every run"
        );
        assert!(plan.sites_at(0, 3, 16, &dims()).is_empty());
        assert!(plan.sites_at(0, 2, 17, &dims()).is_empty());
    }

    #[test]
    fn bernoulli_is_deterministic_in_the_seed() {
        let a = FaultPlan::bernoulli(42, 0.05);
        let b = FaultPlan::bernoulli(42, 0.05);
        for tile in 0..8 {
            for cycle in 0..64 {
                assert_eq!(a.sites_at(1, tile, cycle, &dims()), b.sites_at(1, tile, cycle, &dims()));
            }
        }
    }

    #[test]
    fn bernoulli_rate_zero_never_fires_and_rate_one_always_fires() {
        let never = FaultPlan::bernoulli(7, 0.0);
        let always = FaultPlan::bernoulli(7, 1.0);
        for cycle in 0..256 {
            assert!(never.sites_at(0, 0, cycle, &dims()).is_empty());
            assert_eq!(always.sites_at(0, 0, cycle, &dims()).len(), 1);
        }
    }

    #[test]
    fn retries_see_an_independent_draw() {
        // The run ordinal enters the hash: the same (tile, cycle) points
        // cannot fault identically on every retry at any plausible rate.
        let plan = FaultPlan::bernoulli(3, 0.1);
        let fires = |run: u64| -> usize {
            (0..400)
                .filter(|&cyc| !plan.sites_at(run, 0, cyc, &dims()).is_empty())
                .count()
        };
        let (first, second) = (fires(0), fires(1));
        assert!(first > 0 && second > 0, "rate 0.1 over 400 cycles must fire");
        let same: usize = (0..400)
            .filter(|&cyc| {
                let a = plan.sites_at(0, 0, cyc, &dims());
                !a.is_empty() && a == plan.sites_at(1, 0, cyc, &dims())
            })
            .count();
        assert!(same < first, "draws must differ between runs");
    }

    #[test]
    fn random_sites_stay_in_range() {
        let plan = FaultPlan::bernoulli(11, 1.0);
        let d = dims();
        for cycle in 0..512 {
            for site in plan.sites_at(0, 0, cycle, &d) {
                match site {
                    FaultSite::HBankBit { bank, offset, bit } => {
                        assert!(bank < d.h_banks && offset < d.h_words && bit < Word::BITS);
                    }
                    FaultSite::VBankBit { bank, offset, bit } => {
                        assert!(bank < d.v_banks && offset < d.v_words && bit < Word::BITS);
                    }
                    FaultSite::GrfBit { index, bit } => {
                        assert!(index < npcgra_arch::grf::GRF_WORDS && bit < Word::BITS);
                    }
                    FaultSite::GrfTrim { keep } => assert!(keep < npcgra_arch::grf::GRF_WORDS),
                    FaultSite::PeOutBit { r, c, bit } => {
                        assert!(r < d.rows && c < d.cols && bit < Word::BITS);
                    }
                    FaultSite::Temporal(_) => panic!("bernoulli plans never draw temporal faults"),
                }
            }
        }
    }

    #[test]
    fn none_plan_schedules_nothing_and_has_no_temporal() {
        let plan = FaultPlan::none();
        for cycle in 0..256 {
            assert!(plan.sites_at(0, 0, cycle, &dims()).is_empty());
        }
    }

    #[test]
    fn gray_plan_is_deterministic_and_draws_all_three_kinds() {
        let rates = GrayRates {
            rate: 0.05,
            stall_cycles: 64,
            slowdown_factor: 8,
        };
        let a = FaultPlan::gray(99, 0.01, rates);
        let b = a.clone();
        let (mut stalls, mut slows, mut wedges, mut flips) = (0, 0, 0, 0);
        for tile in 0..16 {
            for cycle in 0..512 {
                let sa = a.sites_at(2, tile, cycle, &dims());
                assert_eq!(sa, b.sites_at(2, tile, cycle, &dims()), "clone agrees");
                assert_eq!(sa, a.sites_at(2, tile, cycle, &dims()), "repeat call agrees");
                for site in sa {
                    match site {
                        FaultSite::Temporal(TemporalFault::Stall { cycles }) => {
                            assert_eq!(cycles, 64);
                            stalls += 1;
                        }
                        FaultSite::Temporal(TemporalFault::Slowdown { factor }) => {
                            assert_eq!(factor, 8);
                            slows += 1;
                        }
                        FaultSite::Temporal(TemporalFault::Wedge) => wedges += 1,
                        _ => flips += 1,
                    }
                }
            }
        }
        assert!(
            stalls > 0 && slows > 0 && wedges > 0,
            "mix covers all kinds: {stalls}/{slows}/{wedges}"
        );
        assert!(flips > 0, "gray plans still flip bits");
    }

    #[test]
    fn gray_temporal_rate_zero_never_draws_temporal() {
        let rates = GrayRates {
            rate: 0.0,
            stall_cycles: 8,
            slowdown_factor: 4,
        };
        let plan = FaultPlan::gray(5, 0.5, rates);
        for cycle in 0..512 {
            for site in plan.sites_at(0, 0, cycle, &dims()) {
                assert!(!matches!(site, FaultSite::Temporal(_)));
            }
        }
    }
}
