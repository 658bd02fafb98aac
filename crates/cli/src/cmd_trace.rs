//! `npcgra trace`: cycle-by-cycle execution dump of one block.

use npcgra::kernels::dwc_general::padded_ifm;
use npcgra::kernels::dwc_s1::DwcS1LayerMap;
use npcgra::kernels::pwc::PwcLayerMap;
use npcgra::{ConvKind, Machine, Tensor};

use crate::args::{Flags, LAYER_FLAGS};

pub fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &format!("machine cycles {LAYER_FLAGS}"))?;
    let spec = flags.machine()?;
    let layer = flags.layer()?;
    let max_cycles: usize = flags.parse_or("cycles", 64)?;

    let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 1);
    let weights = layer.random_weights(2);

    let prog = match layer.kind() {
        ConvKind::Pointwise => {
            let map = PwcLayerMap::new(&layer, &spec).map_err(|e| e.to_string())?;
            map.materialize(0, &ifm, &weights)
        }
        ConvKind::Depthwise if layer.s() == 1 => {
            let map = DwcS1LayerMap::new(&layer, &spec).map_err(|e| e.to_string())?;
            let padded = padded_ifm(&layer, &ifm);
            map.materialize(0, &padded, &weights)
        }
        _ => {
            let map = npcgra::kernels::dwc_general::DwcGeneralLayerMap::new(&layer, &spec).map_err(|e| e.to_string())?;
            let padded = padded_ifm(&layer, &ifm);
            map.materialize(0, &padded, &weights)
        }
    };

    println!(
        "tracing block '{}' on {}x{} (tile latency {} cycles)",
        prog.label,
        spec.rows,
        spec.cols,
        prog.mapping.tile_latency()
    );
    let mut machine = Machine::new(&spec);
    let (result, trace) = machine.run_block_traced(&prog).map_err(|e| e.to_string())?;
    for line in trace.to_string().lines().take(max_cycles) {
        println!("{line}");
    }
    if trace.len() > max_cycles {
        println!("... ({} more cycles; raise --cycles to see them)", trace.len() - max_cycles);
    }
    println!(
        "block done: {} cycles, {} MACs, {} outputs",
        result.compute_cycles,
        result.mac_ops,
        result.ofm.len()
    );
    Ok(())
}
