//! `npcgra time-model`: per-layer timing of the evaluation workloads.

use npcgra::nn::models;
use npcgra::sim::{time_layer, MappingKind};
use npcgra::{AreaModel, ConvKind, LayerReport, Model, NpCgra};

use crate::args::Flags;

pub fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, "machine model alpha res batched")?;
    let spec = flags.machine()?;
    let machine = NpCgra::new(spec);
    let batched = flags.has("batched");

    let model: Model = match flags.require("model")? {
        "v1" => models::mobilenet_v1(flags.parse_or("alpha", 0.5)?, flags.parse_or("res", 128)?),
        "v2" => models::mobilenet_v2(flags.parse_or("alpha", 1.0)?, flags.parse_or("res", 224)?),
        "v3" => models::mobilenet_v3_small(flags.parse_or("res", 224)?),
        "alexnet" => models::alexnet(),
        other => return Err(format!("--model must be v1|v2|v3|alexnet, got '{other}'")),
    };

    println!("== {} on {}x{} NP-CGRA ==", model.name(), spec.rows, spec.cols);
    println!("{:<16} {:>12} {:>10} {:>8}", "layer", "cycles", "ms", "util%");
    let mut reports: Vec<LayerReport> = Vec::new();
    for layer in model.layers() {
        let mut r = machine.time_layer(layer).map_err(|e| e.to_string())?;
        if batched && layer.kind() == ConvKind::Depthwise && layer.s() == 1 {
            if let Ok(b) = time_layer(layer, &spec, MappingKind::BatchedDwcS1) {
                if b.seconds() < r.seconds() {
                    r = b;
                }
            }
        }
        println!(
            "{:<16} {:>12} {:>10.4} {:>8.2}",
            r.name,
            r.cycles,
            r.ms(),
            r.utilization() * 100.0
        );
        reports.push(r);
    }
    let total = LayerReport::total(model.name(), &reports);
    let area = AreaModel::calibrated().total(&spec);
    println!("{:-<50}", "");
    println!(
        "total: {:.3} ms ({} cycles{}), ADP {:.2} mm^2*ms",
        total.ms(),
        total.cycles,
        if total.host_seconds > 0.0 {
            format!(" + {:.2} ms host im2col", total.host_seconds * 1e3)
        } else {
            String::new()
        },
        area * total.ms()
    );
    Ok(())
}
