//! Fig. 12, the beyond-paper studies and the DESIGN §8 ablations.

use npcgra::NpCgra;
use npcgra_arch::CgraSpec;
use npcgra_area::model::baseline_like;
use npcgra_area::{AreaBreakdown, AreaModel, EnergyBreakdown, EnergyModel};
use npcgra_baseline::CcfModel;
use npcgra_kernels::{perf, BlockCfg, DwcS1Mapping, TileMapping};
use npcgra_nn::models::{self, table5_layers};
use npcgra_nn::{ConvKind, ConvLayer, Tensor};
use npcgra_sim::{estimate_layer_energy, time_layer_single_buffered, MappingKind};

use crate::{fx, timed, Report, Row};

/// Fig. 12: area of the baseline and NP-CGRA 8×8 machines by component.
pub(crate) fn fig12() -> Report {
    let model = AreaModel::calibrated();
    let base = model.breakdown(&baseline_like(8, 8));
    let np = model.breakdown(&CgraSpec::np_cgra(8, 8));
    let mut r = Report::default();
    r.text += "\
Fig. 12: area comparison, 8x8 machines at 65 nm / 500 MHz (mm^2)

Component        Baseline    NP-CGRA    delta
";
    let parts = |a: &AreaBreakdown| [a.sram, a.pe_array, a.agus, a.controller, a.grf, a.total()];
    let names = ["SRAM", "PE array", "AGUs", "Controller", "GRF+WeightBuf", "Total"];
    for ((name, b), n) in names.into_iter().zip(parts(&base)).zip(parts(&np)) {
        for (machine, area) in [("base8x8", b), ("np8x8", n)] {
            let mut row = Row::new("fig12", name, machine, "-");
            row.area_mm2 = Some(area);
            r.rows.push(row);
        }
        if name == "Total" {
            out!(r, "{:-<44}", "");
        }
        out!(r, "{name:<14} {b:>10.3} {n:>10.3} {:>+8.3}", n - b);
    }
    let total = (np.total() / base.total() - 1.0) * 100.0;
    let core = (np.core() / base.core() - 1.0) * 100.0;
    out!(r, "\ntotal overhead: {total:.1} % (paper: 22.2 %)");
    out!(r, "core overhead:  {core:.1} % over the baseline core");
    for (name, a) in [("baseline", &base), ("np-cgra ", &np)] {
        let areas = [a.sram, a.pe_array, a.agus, a.controller, a.grf];
        let parts = areas.into_iter().zip(["#", "P", "A", "C", "G"]);
        let bar: String = parts.map(|(v, ch)| ch.repeat((v * 30.0 / 2.2).round() as usize)).collect();
        let total = a.total();
        out!(r, "{name} |{bar}| {total:.2} mm^2  (#=SRAM, P=PEs, A=AGU, C=ctrl, G=GRF)");
    }
    r.text += "
critical path: 1.23 ns baseline vs 1.65 ns NP-CGRA chained (paper synthesis);
both meet the 2 ns / 500 MHz evaluation target.
";
    r
}

/// The §5.4 channel-batching extension on MobileNet V2's stride-1 DWC
/// layers (beyond the paper).
pub(crate) fn batching_gain() -> Report {
    let spec = CgraSpec::table4();
    let v2 = models::mobilenet_v2(1.0, 224);
    let mut r = Report::default();
    r.text += "\
MobileNet V2 DWC layers: per-channel (paper) vs channel-batched (§5.4 extension)
layer            plain ms   batch ms     gain
";
    let (mut plain_total, mut best_total) = (0.0, 0.0);
    for layer in v2.dsc_layers() {
        let (plain_row, plain) = timed("batching_gain", layer, "np8x8", &spec, MappingKind::Auto);
        plain_total += plain.ms();
        if layer.kind() != ConvKind::Depthwise || layer.s() != 1 {
            best_total += plain.ms();
            continue;
        }
        let (batched_row, batched) = timed("batching_gain", layer, "np8x8", &spec, MappingKind::BatchedDwcS1);
        r.rows.extend([plain_row, batched_row]);
        let (p, b) = (plain.ms(), batched.ms());
        if b < p * 0.99 {
            out!(r, "{:<14} {p:>10.4} {b:>10.4} {:>7.2}x", layer.name(), p / b);
        }
        best_total += p.min(b);
    }
    for (mapping, ms) in [("per-channel", plain_total), ("best-of", best_total)] {
        let mut row = Row::new("batching_gain", v2.name(), "np8x8", mapping);
        row.ms = Some(ms);
        r.rows.push(row);
    }
    out!(r, "{:-<46}", "");
    let (plain, best) = (plain_total, best_total);
    out!(r, "V2 DSC total: {plain:.2} ms -> {best:.2} ms ({:.2}x)", plain / best);
    r
}

/// §2.3's configurable datapath width: 8/16/32-bit variants of the 8×8
/// machine on MobileNet V1-0.5-128 (beyond the paper).
pub(crate) fn width_study() -> Report {
    let mut r = Report::default();
    r.text += "\
Datapath-width study: 8x8 NP-CGRA at 500 MHz, MobileNet V1 (0.5/128) DSC
(functional datapath is 16-bit; width enters the DMA volume, the SRAM
 capacity-in-words, and the 65nm/16-bit area conversion)

width       area mm^2       DSC ms          ADP DMA bytes/elem
";
    let v1 = models::mobilenet_v1(0.5, 128);
    let base_area = AreaModel::calibrated().total(&CgraSpec::table4());
    for bits in [8usize, 16, 32] {
        let spec = CgraSpec::table4().with_word_bytes(bits / 8);
        let total = NpCgra::new(spec).time_model_dsc(&v1).expect("maps");
        // Area scales linearly with datapath width (the paper's own
        // conversion convention).
        let row = Row::new("width_study", v1.name(), format!("np8x8-{bits}bit"), "total").report(&total);
        let row = row.priced(base_area * bits as f64 / 16.0);
        let row = row.with("dma_bytes_per_elem", spec.word_bytes);
        let (area, adp) = (row.area_mm2.unwrap_or(0.0), row.adp.unwrap_or(0.0));
        let (width, ms, bytes) = (format!("{bits}-bit"), total.ms(), spec.word_bytes);
        out!(r, "{width:<8} {area:>12.2} {ms:>12.3} {adp:>12.2} {bytes:>14}");
        r.rows.push(row);
    }
    r.text += "
narrower words shrink area and off-chip traffic; the 16-bit point is the
paper's Table 4 machine. (8-bit accuracy effects are out of scope, as in
the paper: 'we do not consider aggressive quantization'.)
";
    r
}

/// §6.2's scaling claim: the PWC mapping-efficiency gap between CCF on the
/// baseline and NP-CGRA as the array grows from 2×2 to 16×16.
pub(crate) fn mapping_gap() -> Report {
    let (pw, _, _) = table5_layers();
    let mut r = Report::default();
    r.text += "\
PWC mapping-efficiency gap vs array size (MobileNet pw1, 500 MHz)
array          CCF ms      ours ms    speedup    CCF util%  our util%
";
    for n in [2usize, 4, 8, 16] {
        let spec = CgraSpec::np_cgra(n, n);
        let mut ccf = CcfModel::table5();
        (ccf.rows, ccf.cols) = (n, n);
        let ccf = ccf.compile_layer(&pw);
        let (row, ours) = timed("mapping_gap", &pw, &machine(&spec), &spec, MappingKind::Auto);
        let ccf_row = Row::new("mapping_gap", "pw1", format!("base{n}x{n}"), "ccf");
        r.rows.extend([ccf_row.ccf(&ccf), row]);
        let (ccf_ms, ours_ms, speedup) = (ccf.seconds * 1e3, ours.ms(), ccf.seconds / ours.seconds());
        let (ccf_util, our_util, array) = (ccf.utilization * 100.0, ours.utilization() * 100.0, format!("{n}x{n}"));
        let cols = format!("{ccf_ms:>12.2} {ours_ms:>12.3} {speedup:>9.1}x");
        out!(r, "{array:<8} {cols} {ccf_util:>12.2} {our_util:>10.2}");
    }
    r.text += "
the paper's expectation holds: CCF cannot use the extra PEs (its II is set
by the loop body, not the array), while the 2-D mapping keeps scaling.
";
    r
}

/// Per-layer energy of the Table 5 layers on the 4×4 machine (beyond the
/// paper, which reports none).
pub(crate) fn energy_table() -> Report {
    let spec = CgraSpec::np_cgra(4, 4);
    let model = EnergyModel::nm65();
    let mut r = Report::default();
    r.text += "\
Energy estimates (uJ), Table 5 layers on the 4x4 machine
(65 nm / 16-bit first-order model; matmul-DWC column shows the cost of
 forgoing the operand reuse network)

layer         compute       idle       SRAM       DRAM      total    vs matmul
";
    let (pw, dw1, dw2) = table5_layers();
    for layer in [&pw, &dw1, &dw2] {
        let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 1);
        let w = layer.random_weights(2);
        let dw = layer.kind() == ConvKind::Depthwise;
        let kinds = &[MappingKind::Auto, MappingKind::MatmulDwc][..1 + usize::from(dw)];
        let energy = |&k: &MappingKind| estimate_layer_energy(layer, &ifm, &w, &spec, k, &model).expect("maps");
        let energy: Vec<_> = kinds.iter().map(energy).collect();
        for (kind, e) in kinds.iter().zip(&energy) {
            let mut row = Row::new("energy_table", layer.name(), "np4x4", format!("{kind:?}"));
            row.energy_uj = Some(e.total_uj());
            let row = row.with("compute_uj", fx(e.compute_uj)).with("idle_uj", fx(e.idle_uj));
            let row = row.with("sram_uj", fx(e.sram_uj)).with("grf_uj", fx(e.grf_uj));
            r.rows.push(row.with("dram_uj", fx(e.dram_uj)));
        }
        let e = &energy[0];
        let vs = |m: &EnergyBreakdown| format!("{:.2}x", m.total_uj() / e.total_uj());
        let alt = energy.get(1).map_or("-".to_string(), vs);
        let parts = [e.compute_uj, e.idle_uj, e.sram_uj, e.dram_uj, e.total_uj()].map(|v| format!(" {v:>10.1}"));
        out!(r, "{:<10}{} {alt:>12}", layer.name(), parts.concat());
    }
    r.text += "
off-chip DRAM dominates DWC energy (the low arithmetic-intensity story of
the paper's introduction, in joules); the matmul-DWC path pays extra SRAM
and DRAM energy for its im2col duplication.
";
    r
}

/// The seven DESIGN §8 ablations: each design choice beside the machine
/// without it, rendered as cost without ÷ cost with.
pub(crate) fn ablations() -> Report {
    let (pw, dw1, _) = table5_layers();
    let (spec, t4) = (CgraSpec::np_cgra(4, 4), CgraSpec::table4());
    let cycles = |layer: &str, machine: &str, variant: &str, cycles: u64| {
        let mut row = Row::new("ablations", layer, machine, variant);
        row.compute_cycles = Some(cycles);
        row
    };
    let time = |layer: &ConvLayer, spec: &CgraSpec, kind| timed("ablations", layer, &machine(spec), spec, kind).0;
    let mut pairs = Vec::new();

    // Dual-mode MAC (§3.2): without chaining each MAC is two issue slots,
    // so the stream phase doubles (N_i MACs -> 2·N_i cycles per tile).
    let cfg = BlockCfg::choose_pwc(&spec, pw.in_channels(), pw.out_w(), pw.out_channels());
    let chained = perf::pwc_layer_cycles(&pw, &spec, cfg);
    let (ni, lambda) = (pw.in_channels() as u64, spec.cols as u64 + 1);
    let split = chained / (ni + lambda) * (2 * ni + lambda);
    let with = cycles("pw1", "np4x4", "mac-chained", chained);
    pairs.push(("dual-mode-mac", with, cycles("pw1", "np4x4", "mac-split", split)));

    // Operand reuse network: DWC-S1 (ORN) vs the general mapping (H-bus
    // streaming) on a stride-1 layer.
    let cfg = BlockCfg::choose_dwc(&spec, 3, 1, dw1.out_h(), dw1.out_w());
    let orn = perf::dwc_s1_layer_cycles(&dw1, &spec, cfg);
    let hbus = perf::dwc_general_layer_cycles(&dw1, &spec, cfg);
    let with = cycles("dw1", "np4x4", "orn", orn);
    pairs.push(("orn", with, cycles("dw1", "np4x4", "h-bus-streaming", hbus)));

    // Crossbar + V-MEM: the full 2-D mappings vs matmul-DWC's single column.
    let with = time(&dw1, &spec, MappingKind::Auto);
    pairs.push(("2d-mapping", with, time(&dw1, &spec, MappingKind::MatmulDwc)));

    // V-MEM SS path (§4.2): one V-bus cycle per SS vs streaming the south
    // row over an H-bus for N_c cycles.
    for n in [4usize, 8, 16] {
        let s = CgraSpec::np_cgra(n, n);
        let vmem = DwcS1Mapping::new(3, &s, 0).tile_latency();
        let hbus = perf::dwc_s1_tile_latency_without_vmem(3, &s);
        let with = cycles("dwc-s1-tile-k3", &machine(&s), "ss-vmem", vmem);
        pairs.push(("ss-vmem", with, cycles("dwc-s1-tile-k3", &machine(&s), "ss-hbus", hbus)));
    }

    // §5.4 channel batching on a DMA-bound layer.
    let layer = ConvLayer::depthwise("dw-7x7x960", 960, 7, 7, 3, 1, 1);
    let with = time(&layer, &t4, MappingKind::BatchedDwcS1);
    pairs.push(("batching", with, time(&layer, &t4, MappingKind::Auto)));

    // Table 4's two buffering sets: double-buffered vs serialized DMA.
    let mut with = time(&dw1, &t4, MappingKind::Auto);
    with.mapping = "2-sets".into();
    let single = time_layer_single_buffered(&dw1, &t4, MappingKind::Auto).expect("maps");
    let without = Row::new("ablations", "dw1", "np8x8", "1-set").report(&single);
    pairs.push(("double-buffer", with, without));

    let mut r = Report::default();
    out!(r, "Ablations (DESIGN §8): each design choice against the machine without it");
    // Latency when the pair was timed, compute cycles otherwise.
    let count = |row: &Row| row.compute_cycles.unwrap_or(0) as f64;
    let cost = |row: &Row| row.ms.map_or((count(row), 0, "cycles"), |ms| (ms, 3, "ms"));
    for (tag, with, without) in pairs {
        let ((a, p, unit), (b, _, _)) = (cost(&with), cost(&without));
        let (on, x) = (format!("{} on {}", with.layer, with.machine), b / a);
        let a = format!("{} {a:.p$} {unit}", with.mapping);
        let b = format!("{} {b:.p$} {unit}", without.mapping);
        out!(r, "[ablation/{tag}] {on}: {a} vs {b} ({x:.2}x)");
        r.rows.extend([with, without]);
    }

    // Array-size sweep: PWC utilization as the array grows.
    let mut sweep = String::new();
    for n in [2usize, 4, 8, 16] {
        let row = time(&pw, &CgraSpec::np_cgra(n, n), MappingKind::Auto);
        sweep += &format!(" {n}x{n}={:.1}%", row.util.unwrap_or(0.0) * 100.0);
        r.rows.push(row);
    }
    out!(r, "[ablation/array-sweep] PWC utilization:{sweep}");
    r
}

/// A machine's row name: `np{R}x{C}`.
fn machine(spec: &CgraSpec) -> String {
    format!("np{}x{}", spec.rows, spec.cols)
}
