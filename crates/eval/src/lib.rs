//! The paper's results as one row model. Each table, figure, study and
//! ablation is one function returning a [`Report`]: the [`Row`]s it
//! measured and the rendering of the same numbers. `--tsv` prints every
//! row: the snapshot `tests/golden/paper.tsv`, compared exactly in tier-1.
//!
//! A row's key is (experiment, layer, machine, mapping). `np{R}x{C}` is
//! `CgraSpec::np_cgra(R, C)`, `base{R}x{C}` the baseline CGRA (with the CCF
//! scheduler when the mapping is `ccf`). The Table 5 machine is plain
//! `np4x4`: `np_cgra` already has Table 4's 39 KB H-MEM and V-MEM at every
//! size. Counts are exact; `formula_cycles` is the §5 closed form beside the
//! counted `compute_cycles`; derived figures are printed at four decimals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Append one line to a [`Report`]'s rendering.
macro_rules! out {
    ($r:expr, $($t:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($r.text, $($t)*);
    }};
}

mod figs;
mod studies;
mod tables;

use std::fmt::Display;

use npcgra_arch::CgraSpec;
use npcgra_area::adp;
use npcgra_baseline::CcfResult;
use npcgra_nn::{ConvKind, ConvLayer};
use npcgra_sim::{time_layer, CompiledLayer, LayerReport, MappingKind};

/// One measured result. A field that does not apply is `None`;
/// experiment-specific numbers go to [`Row::extra`] as `key=value` pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    /// Subcommand that produced the row (`table5`, `ablations`, …).
    pub experiment: &'static str,
    /// Layer, model or component.
    pub layer: String,
    /// Machine (see the crate docs for the naming).
    pub machine: String,
    /// Mapping, or the variant being compared.
    pub mapping: String,
    /// Pipelined cycles (compute overlapped with DMA).
    pub cycles: Option<u64>,
    /// Array-compute cycles.
    pub compute_cycles: Option<u64>,
    /// The §5 closed form for `compute_cycles`.
    pub formula_cycles: Option<u64>,
    /// DMA-engine busy cycles.
    pub dma_cycles: Option<u64>,
    /// Useful MACs.
    pub macs: Option<u64>,
    /// Latency in milliseconds.
    pub ms: Option<f64>,
    /// MAC utilization as a fraction (printed as a percentage).
    pub util: Option<f64>,
    /// Area in mm².
    pub area_mm2: Option<f64>,
    /// Area-delay product in mm²·ms.
    pub adp: Option<f64>,
    /// Energy in µJ.
    pub energy_uj: Option<f64>,
    /// Further named values, already formatted.
    pub extra: Vec<(&'static str, String)>,
}

impl Row {
    /// A row with its key set and no values.
    #[must_use]
    pub(crate) fn new(experiment: &'static str, layer: impl Display, machine: impl Display, mapping: impl Display) -> Row {
        let mut row = Row::default();
        (row.experiment, row.layer) = (experiment, layer.to_string());
        (row.machine, row.mapping) = (machine.to_string(), mapping.to_string());
        row
    }

    /// Fill the counts, latency and utilization of a simulator report.
    #[must_use]
    pub(crate) fn report(mut self, r: &LayerReport) -> Row {
        (self.cycles, self.compute_cycles) = (Some(r.cycles), Some(r.compute_cycles));
        (self.dma_cycles, self.macs) = (Some(r.dma_cycles), Some(r.macs));
        (self.ms, self.util) = (Some(r.ms()), Some(r.utilization()));
        self
    }

    /// Fill the cycles, latency and utilization of a CCF schedule, with its
    /// II, slot occupancy and makespan.
    #[must_use]
    pub(crate) fn ccf(mut self, c: &CcfResult) -> Row {
        (self.cycles, self.ms, self.util) = (Some(c.cycles), Some(c.seconds * 1e3), Some(c.utilization));
        let (occupancy, makespan) = (fx(c.occupancy * 100.0), c.schedule.makespan);
        let row = self.with("ii", c.ii).with("occupancy_pct", occupancy);
        row.with("makespan", makespan)
    }

    /// Set the machine's area and the ADP of the row's latency on it.
    #[must_use]
    pub(crate) fn priced(mut self, area_mm2: f64) -> Row {
        self.adp = self.ms.map(|ms| adp(area_mm2, ms).value());
        self.area_mm2 = Some(area_mm2);
        self
    }

    /// Add a named value to [`Row::extra`].
    #[must_use]
    pub(crate) fn with(mut self, key: &'static str, value: impl Display) -> Row {
        self.extra.push((key, value.to_string()));
        self
    }

    /// The row as one line in [`TSV_HEADER`] order, `-` for `None`.
    #[must_use]
    pub fn tsv(&self) -> String {
        let r = self;
        let n = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
        let f = |v: Option<f64>| v.map_or("-".to_string(), fx);
        let counts = [r.cycles, r.compute_cycles, r.formula_cycles, r.dma_cycles, r.macs].map(n);
        let derived = [r.ms, r.util.map(|u| u * 100.0), r.area_mm2, r.adp, r.energy_uj].map(f);
        let extra: Vec<String> = r.extra.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let extra = if extra.is_empty() { "-".to_string() } else { extra.join(" ") };
        let key = [r.experiment, &r.layer, &r.machine, &r.mapping].map(str::to_string);
        [&key[..], &counts, &derived, &[extra]].concat().join("\t")
    }
}

/// Column names of [`tsv`]'s first line.
pub const TSV_HEADER: &str = "experiment\tlayer\tmachine\tmapping\tcycles\tcompute_cycles\tformula_cycles\tdma_cycles\tmacs\tms\tutil_pct\tarea_mm2\tadp\tenergy_uj\textra";

/// One experiment's rows and its human-readable rendering.
#[derive(Debug, Default)]
pub struct Report {
    /// The measured rows.
    pub rows: Vec<Row>,
    /// The rendering printed by the experiment's subcommand.
    pub text: String,
}

/// An experiment: computes its rows and renders them.
pub type Experiment = fn() -> Report;

/// Every subcommand, in `--all` and `--tsv` order.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", tables::table1),
    ("table3", tables::table3),
    ("table4", tables::table4),
    ("table5", tables::table5),
    ("table6", tables::table6),
    ("fig12", studies::fig12),
    ("fig_schedules", figs::fig_schedules),
    ("fig_layouts", figs::fig_layouts),
    ("batching_gain", studies::batching_gain),
    ("width_study", studies::width_study),
    ("mapping_gap", studies::mapping_gap),
    ("energy_table", studies::energy_table),
    ("ablations", studies::ablations),
];

/// Run the experiment named `name`, if there is one.
#[must_use]
pub fn run(name: &str) -> Option<Report> {
    EXPERIMENTS.iter().find(|(n, _)| *n == name).map(|(_, run)| run())
}

/// Every experiment's rows, in [`EXPERIMENTS`] order.
#[must_use]
pub fn rows() -> Vec<Row> {
    EXPERIMENTS.iter().flat_map(|(_, run)| run().rows).collect()
}

/// The snapshot: [`TSV_HEADER`] and then every row, one per line.
#[must_use]
pub fn tsv() -> String {
    rows().iter().fold(format!("{TSV_HEADER}\n"), |s, row| s + &row.tsv() + "\n")
}

/// A derived figure at the snapshot's fixed precision.
#[must_use]
pub(crate) fn fx(v: f64) -> String {
    format!("{v:.4}")
}

/// Time `layer` on `spec` (timing-only, exact cycle accounting) and key the
/// row by the mapping the compiler resolved `kind` to.
fn timed(experiment: &'static str, layer: &ConvLayer, machine: &str, spec: &CgraSpec, kind: MappingKind) -> (Row, LayerReport) {
    let (mapping, rep) = if layer.kind() == ConvKind::Standard {
        ("Im2colPwc".to_string(), time_layer(layer, spec, kind).expect("layer maps"))
    } else {
        let compiled = CompiledLayer::compile(layer, spec, kind).expect("layer maps");
        (format!("{:?}", compiled.mapping()), compiled.timing_report())
    };
    (Row::new(experiment, layer.name(), machine, mapping).report(&rep), rep)
}
