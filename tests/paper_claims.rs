//! Reproduction of the paper's headline quantitative claims, end to end:
//! Table 1 (bottleneck analysis), Table 3 (latency formulas), Table 5
//! (DSC results) and Table 6 (cross-architecture comparison) shapes.

use npcgra::area::comparators;
use npcgra::baseline::{baseline_4x4 as t1_baseline, enhanced_8x8, eyeriss_168, min_latency, CcfModel, ReuseScenario};
use npcgra::nn::models;
use npcgra::sim::{time_layer, MappingKind};
use npcgra::{adp, AreaModel, CgraSpec, NpCgra};

/// Table 5: "our NP-CGRA generates over 20× speed up and close to 18× ADP
/// reduction for PWC over the baseline" (we assert ≥10× / ≥9× — the shape,
/// with our CCF model's exact II).
#[test]
fn table5_pwc_speedup_and_adp_gain() {
    let (pw, _, _) = models::table5_layers();
    let spec = CgraSpec::np_cgra(4, 4);
    let ours = time_layer(&pw, &spec, MappingKind::Auto).unwrap();
    let ccf = CcfModel::table5().compile_layer(&pw);

    let speedup = ccf.seconds / ours.seconds();
    assert!(speedup > 10.0, "PWC speedup {speedup} (paper >20x)");

    let model = AreaModel::calibrated();
    let ours_adp = adp(model.total(&spec), ours.ms());
    let ccf_adp = adp(model.total(&npcgra::area::model::baseline_like(4, 4)), ccf.seconds * 1e3);
    let gain = ours_adp.improvement_over(&ccf_adp);
    assert!(gain > 9.0, "PWC ADP gain {gain} (paper ~18x)");
}

/// Table 5: our DWC mapping is 1.75–3× better than matmul-based DWC.
#[test]
fn table5_dwc_beats_matmul_dwc() {
    let (_, dw1, dw2) = models::table5_layers();
    let spec = CgraSpec::np_cgra(4, 4);
    for layer in [&dw1, &dw2] {
        let ours = time_layer(layer, &spec, MappingKind::Auto).unwrap();
        let matmul = time_layer(layer, &spec, MappingKind::MatmulDwc).unwrap();
        let ratio = matmul.seconds() / ours.seconds();
        assert!((1.5..3.6).contains(&ratio), "{}: ratio {ratio} (paper 1.75-3x)", layer.name());
    }
}

/// Table 5 absolute latencies (ms) for "Our mapping" on the 4×4 at 500 MHz:
/// PWC 3.72, DWC S=1 0.92, DWC S=2 0.81 (±10 % tolerance: our DMA model
/// sits where the paper's measured overheads do).
#[test]
fn table5_our_mapping_absolute_latencies() {
    let (pw, dw1, dw2) = models::table5_layers();
    let spec = CgraSpec::np_cgra(4, 4);
    for (layer, paper_ms) in [(&pw, 3.72), (&dw1, 0.92), (&dw2, 0.81)] {
        let r = time_layer(layer, &spec, MappingKind::Auto).unwrap();
        let err = (r.ms() - paper_ms).abs() / paper_ms;
        assert!(
            err < 0.10,
            "{}: {:.3} ms vs paper {paper_ms} ms ({:.1} % off)",
            layer.name(),
            r.ms(),
            err * 100.0
        );
    }
}

/// Table 5 utilizations: 86.42 % (PWC), 49 % (DWC S=1), 28 % (DWC S=2),
/// 16.04 % (matmul DWC S=1).
#[test]
fn table5_utilizations() {
    let (pw, dw1, dw2) = models::table5_layers();
    let spec = CgraSpec::np_cgra(4, 4);
    let u = |l, k| time_layer(l, &spec, k).unwrap().utilization();
    assert!((u(&pw, MappingKind::Auto) - 0.8642).abs() < 0.03);
    assert!((u(&dw1, MappingKind::Auto) - 0.49).abs() < 0.03);
    assert!((u(&dw2, MappingKind::Auto) - 0.28).abs() < 0.03);
    assert!((u(&dw1, MappingKind::MatmulDwc) - 0.1604).abs() < 0.02);
}

/// Table 1: baseline-vs-Eyeriss compute gap ≈ 8×; the enhanced 8×8 machine
/// closes it and becomes (essentially) compute-bound.
#[test]
fn table1_bottleneck_analysis() {
    let layers = models::mobilenet_v2_table1_dwc_layers();
    let base = min_latency(&t1_baseline(), &layers, ReuseScenario::Most);
    let eye = min_latency(&eyeriss_168(), &layers, ReuseScenario::Most);
    let enh = min_latency(&enhanced_8x8(), &layers, ReuseScenario::Most);

    let gap = base.compute_s / eye.compute_s;
    assert!((8.0..9.0).contains(&gap), "compute gap {gap} (paper ~8.4x)");
    assert!(enh.compute_s < 1.3 * eye.compute_s, "enhanced reaches Eyeriss-class compute");

    let worst = min_latency(&t1_baseline(), &layers, ReuseScenario::Least);
    assert!(worst.l1_s > worst.compute_s, "baseline is L1-bound without reuse");
}

/// Table 6 shape: NP-CGRA's MobileNet V1 ADP beats Eyeriss v2's, and its
/// AlexNet ADP beats every comparator, while its raw AlexNet latency is
/// mid-pack (faster than Auto-tuning, slower than the hard DPUs).
#[test]
fn table6_shape() {
    let machine = NpCgra::table4();
    let area = machine.area().total();

    // MobileNet V1 at the Eyeriss-v2 configuration (alpha 0.5, res 128).
    let v1 = models::mobilenet_v1(0.5, 128);
    let v1_total = machine.time_model_dsc(&v1).unwrap();
    let ours_v1 = adp(area, v1_total.ms());
    let ev2 = comparators::eyeriss_v2();
    let gain = ev2.mobilenet_v1_adp().unwrap() / ours_v1.value();
    assert!(gain > 1.5, "V1 ADP gain over Eyeriss v2 {gain} (paper 2.22x)");
    assert!(
        v1_total.ms() > ev2.mobilenet_v1_dsc_ms.unwrap(),
        "Eyeriss v2 keeps the raw-latency lead"
    );

    // AlexNet conv layers via im2col + PWC (+ host im2col time).
    let alex = models::alexnet();
    let reports: Vec<_> = alex.conv_layers().map(|l| machine.time_layer(l).unwrap()).collect();
    let alex_ms: f64 = reports.iter().map(npcgra::LayerReport::ms).sum();
    let ours_alex = adp(area, alex_ms);
    for c in comparators::all_comparators() {
        let their = c.alexnet_adp().unwrap();
        assert!(
            ours_alex.value() < their,
            "NP-CGRA AlexNet ADP {:.1} must beat {} ({their:.1})",
            ours_alex.value(),
            c.name
        );
    }
    assert!(
        alex_ms < comparators::auto_tuning().alexnet_conv_ms.unwrap(),
        "faster than the auto-tuning CGRA"
    );
    assert!(
        alex_ms > comparators::eyeriss_v2().alexnet_conv_ms.unwrap(),
        "slower than Eyeriss v2 in raw latency"
    );
    // Paper's absolute: 40.07 ms; ours must land in the same band.
    assert!((25.0..55.0).contains(&alex_ms), "AlexNet {alex_ms} ms (paper 40.07)");
}

/// Table 6 NP-CGRA absolute rows: MobileNet V1 DSC 4.01 ms / ADP 8.60, V2
/// DSC 18.06 ms (band asserts — our simulator vs their RTL measurements).
#[test]
fn table6_np_cgra_absolute_bands() {
    let machine = NpCgra::table4();
    let v1 = models::mobilenet_v1(0.5, 128);
    let t1 = machine.time_model_dsc(&v1).unwrap();
    assert!((2.0..6.0).contains(&t1.ms()), "V1 DSC {} ms (paper 4.01)", t1.ms());

    let v2 = models::mobilenet_v2(1.0, 224);
    let t2 = machine.time_model_dsc(&v2).unwrap();
    assert!((9.0..27.0).contains(&t2.ms()), "V2 DSC {} ms (paper 18.06)", t2.ms());
}

/// §6.3: area overhead 22.2 % at 8×8; Fig. 12's SRAM dominance.
#[test]
fn fig12_area_shape() {
    let model = AreaModel::calibrated();
    let np = model.breakdown(&CgraSpec::np_cgra(8, 8));
    let base = model.breakdown(&npcgra::area::model::baseline_like(8, 8));
    let overhead = np.total() / base.total() - 1.0;
    assert!((overhead - 0.222).abs() < 0.01, "overhead {overhead}");
    assert!(np.sram > np.core(), "SRAM dominates");
    assert!(np.agus > np.pe_array - base.pe_array, "AGUs are the largest core increase");
}
