//! `npcgra run-layer`: functional execution + golden check + report.

use npcgra::sim::{run_batched_dwc, run_layer, run_matmul_dwc, MappingKind};
use npcgra::{reference, AreaModel, Tensor};

use crate::args::{Flags, LAYER_FLAGS};

pub fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &format!("machine mapping {LAYER_FLAGS}"))?;
    let spec = flags.machine()?;
    let layer = flags.layer()?;
    let mapping = flags.mapping()?;

    let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 1);
    let weights = layer.random_weights(2);

    println!(
        "machine: {}x{} NP-CGRA @ {:.0} MHz",
        spec.rows,
        spec.cols,
        spec.clock_hz / 1e6
    );
    println!("layer:   {layer} ({})", layer.activation());

    let (ofm, report) = match mapping {
        MappingKind::Auto => run_layer(&layer, &ifm, &weights, &spec),
        MappingKind::MatmulDwc => run_matmul_dwc(&layer, &ifm, &weights, &spec),
        MappingKind::BatchedDwcS1 => run_batched_dwc(&layer, &ifm, &weights, &spec),
    }
    .map_err(|e| e.to_string())?;

    let golden = reference::run_layer(&layer, &ifm, &weights).map_err(|e| e.to_string())?;
    let check = if ofm == golden {
        "bit-exact vs golden reference"
    } else {
        "MISMATCH vs golden reference"
    };
    if ofm != golden {
        return Err(check.to_string());
    }

    println!();
    println!(
        "cycles:        {} ({} compute, {} DMA-engine)",
        report.cycles, report.compute_cycles, report.dma_cycles
    );
    println!("latency:       {:.4} ms", report.ms());
    println!("utilization:   {:.2} %", report.utilization() * 100.0);
    let area = AreaModel::calibrated().total(&spec);
    println!("ADP:           {:.4} mm^2*ms (area {area:.3} mm^2)", area * report.ms());
    println!("check:         {check}");
    Ok(())
}
