//! Tables 1, 3, 4, 5 and 6.

use npcgra::NpCgra;
use npcgra_arch::{CgraSpec, WeightBuffer};
use npcgra_area::model::baseline_like;
use npcgra_area::{adp, all_comparators, AreaModel, Comparator};
use npcgra_baseline::{baseline_4x4, enhanced_8x8, eyeriss_168, min_latency, CcfModel, ReuseScenario};
use npcgra_kernels::{perf, DwcGeneralMapping, DwcS1Mapping, PwcMapping, TileMapping};
use npcgra_nn::models::{self, mobilenet_v2_table1_dwc_layers, table5_layers, Model};
use npcgra_nn::{ConvKind, ConvLayer, Tensor};
use npcgra_sim::{CompiledLayer, LayerReport, Machine, MappingKind};

use crate::{fx, timed, Report, Row};

/// Table 1: theoretical minimum latency of the seven MobileNet-V2 DWC
/// layers on the baseline 4×4 CGRA, the enhanced 8×8 CGRA and Eyeriss.
pub(crate) fn table1() -> Report {
    let layers = mobilenet_v2_table1_dwc_layers();
    let mut r = Report::default();
    r.text += "\
Table 1: theoretical min latency (ms), sum of 7 MobileNet-V2 DWC layers
(paper rows: baseline 1.68 / 0.75~4.10 / 1.68~4.10; enhanced 0.21/0.19/0.21; Eyeriss 0.20/0.23/0.23)

Architecture              Compute      L1 transfer  Layer latency
";
    for arch in [baseline_4x4(), enhanced_8x8(), eyeriss_168()] {
        let [most, least] = [ReuseScenario::Most, ReuseScenario::Least].map(|s| min_latency(&arch, &layers, s));
        for (scenario, m) in [("most-reuse", &most), ("least-reuse", &least)] {
            let mut row = Row::new("table1", "v2-dwc-x7", arch.name.as_str(), scenario);
            row.ms = Some(m.latency_ms());
            let ms = [m.compute_s, m.l1_s, m.dma_s].map(|s| fx(s * 1e3));
            let row = row.with("compute_ms", &ms[0]).with("l1_ms", &ms[1]);
            r.rows.push(row.with("dma_ms", &ms[2]));
        }
        let l1 = format!("{:.2} ~ {:.2}", most.l1_s * 1e3, least.l1_s * 1e3);
        let lat = format!("{:.2} ~ {:.2}", most.latency_ms(), least.latency_ms());
        out!(r, "{:<22} {:>10.2} {l1:>16} {lat:>14}", arch.name, most.compute_s * 1e3);
    }
    r.text += "
note: absolute values carry a ~1.3x offset vs the paper from layer-shape
accounting (see EXPERIMENTS.md); the ratios and bottleneck structure match.
";
    r
}

/// Table 3: each closed-form tile and layer latency beside what the mapping
/// (tiles), the cycle-accurate simulator (small layers) or the timing model
/// (the Table 5 layers) counts.
pub(crate) fn table3() -> Report {
    let spec = CgraSpec::np_cgra(4, 4);
    let (nc, ni, k) = (spec.cols, 32, 3);
    let mut r = Report::default();
    r.text += "\
Table 3: performance analysis (4x4 machine, lambda made explicit)

Mapping                  Tile latency formula       cycles
";
    let general = |s| k * ((nc - 1) * s + k) + nc + 1;
    let formula = |s| format!("K((N_c-1)S+K)+lambda = {}", general(s));
    let tile = |s| DwcGeneralMapping::new(k, s, &spec, 0).tile_latency();
    let pwc = PwcMapping::new(ni, &spec, 0).tile_latency();
    let (s1, opt) = (DwcS1Mapping::new(k, &spec, 0).tile_latency(), k * k + 2 * nc + 1);
    let tiles = [
        ("PWC", format!("N_i + lambda = {ni} + {}", nc + 1), ni + nc + 1, pwc),
        ("DWC general S=1", formula(1), general(1), tile(1)),
        ("DWC general S=2", formula(2), general(2), tile(2)),
        ("DWC optimized", format!("K^2+2N_c+1 = {opt}"), opt, s1),
    ];
    for (name, formula, closed, tile) in tiles {
        let mut row = Row::new("table3", "tile", "np4x4", name);
        (row.formula_cycles, row.compute_cycles) = (Some(closed as u64), Some(tile));
        r.rows.push(row);
        out!(r, "{name:<16} {formula:>28} {tile:>12}");
    }

    out!(r, "\nlayer-latency formulas vs cycle-accurate simulation:");
    let pw = ConvLayer::pointwise("pw", 16, 24, 12, 12);
    let dw1 = ConvLayer::depthwise("dw-s1", 4, 20, 20, 3, 1, 1);
    let dw2 = ConvLayer::depthwise("dw-s2", 4, 20, 20, 3, 2, 1);
    for (name, layer) in [("PWC", &pw), ("DWC optimized", &dw1), ("DWC general", &dw2)] {
        let row = simulated(layer, &spec);
        let (formula, sim) = (row.formula_cycles.unwrap_or(0), row.compute_cycles.unwrap_or(0));
        let status = if formula == sim { "OK" } else { "MISMATCH" };
        let (formula, sim) = (format!("formula {formula:>9} cycles"), format!("simulated {sim:>9}"));
        out!(r, "  {name:<16} {formula}, {sim} compute cycles  [{status}]");
        r.rows.push(row);
    }
    let machine = format!("{}x{nc} machine", spec.rows);
    out!(r, "({machine}; formulas and simulation agree exactly by construction)");

    let (t5_pw, t5_dw1, t5_dw2) = table5_layers();
    let [p, d1, d2] = [&t5_pw, &t5_dw1, &t5_dw2].map(|layer| {
        let (mut row, _) = timed("table3", layer, "np4x4", &spec, MappingKind::Auto);
        row.formula_cycles = Some(perf::best_mapping_cycles(layer, &spec));
        r.rows.push(row);
        r.rows.last().and_then(|row| row.formula_cycles).unwrap_or(0)
    });
    r.text += "closed forms on the Table 5 layers (cycles): ";
    out!(r, "PWC {p} / DWC-S1 {d1} / DWC-S2 {d2}");
    r
}

/// Run `layer` on the cycle-accurate machine: the whole layer for the
/// report, then block 0 again for its memory-access counts.
fn simulated(layer: &ConvLayer, spec: &CgraSpec) -> Row {
    let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 1);
    let w = layer.random_weights(2);
    let compiled = CompiledLayer::compile(layer, spec, MappingKind::Auto).expect("layer maps");
    let mut machine = Machine::new(spec);
    let (_, rep) = compiled.run_on(&mut machine, &ifm, &w).expect("layer runs");
    let block0 = compiled.materialize(0, &compiled.prepare(&ifm), &w);
    let block = machine.run_block(&block0).expect("block runs");
    let mapping = format!("{:?}", compiled.mapping());
    let mut row = Row::new("table3", layer.name(), "np4x4", mapping).report(&rep);
    row.formula_cycles = Some(perf::best_mapping_cycles(layer, spec));
    let row = row.with("h_reads", block.h_reads).with("h_writes", block.h_writes);
    row.with("v_reads", block.v_reads).with("grf_reads", block.grf_reads)
}

/// Table 4: the NP-CGRA specification, derived from the architecture model.
pub(crate) fn table4() -> Report {
    let s = CgraSpec::table4();
    let (pes, bits) = (s.num_pes(), s.config_bits_per_cycle());
    let (clock, dram, kb) = (s.clock_hz / 1e6, s.dram_bandwidth / 1e9, s.hmem_bytes / 1024);
    let wb = WeightBuffer::table4().capacity_bytes(9);
    let mut r = Report::default();
    let row = Row::new("table4", "-", "np8x8", "-").with("pes", pes);
    let row = row.with("word_bits", s.word_bytes * 8).with("clock_mhz", fx(clock));
    let (dma, sets) = (s.dma_latency_cycles, s.mem_sets);
    let row = row.with("dram_gb_per_s", fx(dram)).with("dma_latency_cycles", dma);
    let row = row.with("hmem_kb", kb).with("mem_sets", sets);
    let row = row.with("config_mem_bytes", s.config_mem_bytes());
    let row = row.with("config_bits_per_cycle", bits).with("weight_buffer_bytes", wb);
    r.rows.push(row);
    out!(r, "Table 4: NP-CGRA specifications");
    out!(r, "{:<28} {pes} ({}x{})", "Number of PEs", s.rows, s.cols);
    out!(r, "{:<28} {}-bit", "Word size", s.word_bytes * 8);
    out!(r, "{:<28} {clock:.0} MHz", "Clock frequency");
    out!(r, "{:<28} {dram:.1} GB/s", "Off-chip memory bandwidth");
    out!(r, "{:<28} {} cycles", "DMA latency", s.dma_latency_cycles);
    out!(r, "{:<28} {kb} KB (x{} sets)", "H-MEM size (= V-MEM size)", s.mem_sets);
    let bytes = s.config_mem_bytes();
    let config = format!("{bytes} bytes ({bits} x 32 contexts / 8; {bits} bits/cycle = 36 x {pes} + 8)");
    out!(r, "{:<28} {config}", "Configuration memory size");
    out!(r, "{:<28} {wb} bytes (64 x 3x3 16-bit kernels)", "Weight buffer size");
    r.text += "
(paper row-for-row: 64 PEs, 16-bit, 500 MHz, 12.5 GB/s, 200 cycles,
 39 KB x2, 9248 bytes, 1152 bytes)
";
    r
}

/// Table 5: the MobileNet DSC layers on 4×4 machines — CCF on the baseline
/// CGRA vs matmul-based DWC vs the paper's mappings, in latency,
/// utilization and ADP, with CCF's II, occupancy and makespan.
pub(crate) fn table5() -> Report {
    let spec = CgraSpec::np_cgra(4, 4);
    let model = AreaModel::calibrated();
    let (np_area, base_area) = (model.total(&spec), model.total(&baseline_like(4, 4)));
    let (pw, dw1, dw2) = table5_layers();
    let paper = [
        ("78.91 (8.14)", "3.72 (86.42)", "3.72 (86.42)", "122.48", "6.83", "6.83"),
        ("11.10 (8.14)", "2.82 (16.04)", "0.92 (49.00)", "17.22", "5.17", "1.69"),
        ("7.74 (5.83)", "1.41 (16.01)", "0.81 (28.00)", "12.02", "2.59", "1.48"),
    ];
    let (mut r, mut lat, mut adps, mut sched): (Report, Report, Report, Report) = Default::default();
    let cell = |row: &Row| {
        let (ms, util) = (row.ms.unwrap_or(0.0), row.util.unwrap_or(0.0) * 100.0);
        format!("{ms:>8.2} ms {util:>5.2}%")
    };
    for (layer, (p0, p1, p2, a0, a1, a2)) in [&pw, &dw1, &dw2].into_iter().zip(paper) {
        let c = CcfModel::table5().compile_layer(layer);
        let dw = layer.kind() == ConvKind::Depthwise;
        let kind = [MappingKind::Auto, MappingKind::MatmulDwc][usize::from(dw)];
        let (mut matmul, _) = timed("table5", layer, "np4x4", &spec, kind);
        let (mut ours, _) = timed("table5", layer, "np4x4", &spec, MappingKind::Auto);
        (matmul.mapping, ours.mapping) = ("matmul".into(), "ours".into());
        let ccf = Row::new("table5", layer.name(), "base4x4", "ccf").ccf(&c);
        let rows = [ccf.priced(base_area), matmul.priced(np_area), ours.priced(np_area)];
        let [cl, ml, ol] = [0, 1, 2].map(|i| cell(&rows[i]));
        let [ca, ma, oa] = [0, 1, 2].map(|i| rows[i].adp.unwrap_or(0.0));
        let name = layer.name();
        out!(lat, "{name:<12} {cl:>22} {ml:>22} {ol:>22}");
        out!(lat, "{:<12} {p0:>22} {p1:>22} {p2:>22}", "  [paper]");
        out!(adps, "{name:<12} {ca:>22.2} {ma:>22.2} {oa:>22.2}");
        out!(adps, "{:<12} {a0:>22} {a1:>22} {a2:>22}", "  [paper]");
        let (ms, occ, util) = (c.seconds * 1e3, c.occupancy * 100.0, c.utilization * 100.0);
        let (ii, mk) = (c.ii, c.schedule.makespan);
        sched.text += &format!("{name}: II={ii} {ms:.2} ms ");
        out!(sched, "util {util:.2}% occ {occ:.1}% makespan {mk}");
        r.rows.extend(rows);
    }
    let head = |metric: &str| format!("{metric:<12} {:>22} {:>22} {:>22}\n", "CCF", "Matmul DWC", "Our mapping");
    r.text += "Table 5: MobileNet DSC result (4x4 machines @ 500 MHz)\npaper reference rows are quoted in brackets.\n\n";
    r.text += &(head("Metric/Layer") + &lat.text + "\n" + &head("ADP (mm^2*ms)") + &adps.text);
    r.text += &format!("\nCCF modulo schedules on the baseline 4x4:\n{}\n", sched.text);
    let (b, n) = (base_area, np_area);
    let over = (n / b - 1.0) * 100.0;
    out!(r, "areas: baseline {b:.3} mm^2, NP-CGRA {n:.3} mm^2 (+{over:.1}%)");
    r
}

/// Table 6: NP-CGRA on the Table 4 machine, per DSC layer of
/// MobileNet V1-0.5-128 and V2-1.0-224 and per AlexNet convolution, beside
/// the literature rows of Eyeriss, Eyeriss v2, Auto-tuning and SDT-CGRA.
pub(crate) fn table6() -> Report {
    let machine = NpCgra::table4();
    let spec = *machine.spec();
    let area = machine.area().total();
    let mut r = Report::default();
    let mut total = |model: &Model, layers: Vec<&ConvLayer>| {
        let mut reports = Vec::new();
        for l in layers {
            let (mut row, rep) = timed("table6", l, "np8x8", &spec, MappingKind::Auto);
            row.layer = format!("{}/{}", model.name(), l.name());
            r.rows.push(row);
            reports.push(rep);
        }
        let sum = LayerReport::total(model.name(), &reports);
        let row = Row::new("table6", model.name(), "np8x8", "total");
        r.rows.push(row.report(&sum).priced(area));
        sum.ms()
    };
    let (v1, v2) = (models::mobilenet_v1(0.5, 128), models::mobilenet_v2(1.0, 224));
    let alex = models::alexnet();
    let v1_ms = total(&v1, v1.dsc_layers().collect());
    let v2_ms = total(&v2, v2.dsc_layers().collect());
    let alex_ms = total(&alex, alex.conv_layers().collect());

    r.text += "\
Table 6: comparison with previous CGRA and DPU implementations
(comparator rows are reported literature values, as in the paper)

                                Eyeriss Eyeriss-v2  Auto-tuning  SDT-CGRA    NP-CGRA
";
    let f2 = |v: f64| format!("{v:.2}");
    let opt = |v: Option<f64>| v.map_or("-".into(), f2);
    let theirs = |c: &Comparator| {
        [
            format!("{} ({}nm)", c.technology, c.node.0),
            format!("{:.0}", c.clock_mhz),
            format!("{} ({})", c.pes, c.ops_per_cycle),
            c.data_bits.to_string(),
            format!("{:.1}", c.onchip_kb),
            f2(c.reported_area_mm2),
            f2(c.converted_area_mm2()),
            opt(c.mobilenet_v1_dsc_ms),
            "-".to_string(),
            opt(c.mobilenet_v1_adp()),
            opt(c.alexnet_conv_ms),
            opt(c.alexnet_adp()),
        ]
    };
    let (pes, kb) = (spec.num_pes(), spec.total_local_mem_bytes() / 1024);
    let ours = [
        ("Technology", "CGRA (65nm)".to_string()),
        ("Clock (MHz)", format!("{:.0}", spec.clock_hz / 1e6)),
        ("#PEs (#Ops/cycle)", format!("{pes} ({})", spec.peak_ops_per_cycle())),
        ("Data width (bits)", (spec.word_bytes * 8).to_string()),
        ("On-chip memory (kB)", kb.to_string()),
        ("Reported area (mm^2)", f2(area)),
        ("Converted area (mm^2)", f2(area)),
        ("MobileNet V1 DSC (ms)", f2(v1_ms)),
        ("MobileNet V2 DSC (ms)", f2(v2_ms)),
        ("MobileNet V1 ADP", f2(adp(area, v1_ms).value())),
        ("AlexNet conv (ms)", f2(alex_ms)),
        ("AlexNet ADP", f2(adp(area, alex_ms).value())),
    ];
    let columns: Vec<_> = all_comparators().iter().map(theirs).collect();
    for (i, (label, ours)) in ours.into_iter().enumerate() {
        let theirs: String = columns.iter().map(|col| format!(" {:>10}", col[i])).collect();
        out!(r, "{label:<28}{theirs} {ours:>10}");
    }
    r.text += "
paper NP-CGRA column: V1 4.01 ms / ADP 8.60, V2 18.06 ms, AlexNet 40.07 ms / ADP 87.28
(AlexNet latency includes the ARM host im2col time; its area is not in the ADP, as in the paper)
";
    r
}
