//! `npcgra energy`: first-order per-layer energy estimate.

use npcgra::area::EnergyModel;
use npcgra::sim::estimate_layer_energy;
use npcgra::Tensor;

use crate::args::{Flags, LAYER_FLAGS};

pub fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &format!("machine mapping {LAYER_FLAGS}"))?;
    let spec = flags.machine()?;
    let layer = flags.layer()?;
    let mapping = flags.mapping()?;

    let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 1);
    let weights = layer.random_weights(2);
    let model = EnergyModel::nm65();
    let e = estimate_layer_energy(&layer, &ifm, &weights, &spec, mapping, &model).map_err(|e| e.to_string())?;

    println!("layer: {layer}");
    println!("energy estimate (65 nm / 16-bit first-order model):");
    println!("  compute (MACs)   {:>10.3} uJ", e.compute_uj);
    println!("  idle/clocking    {:>10.3} uJ", e.idle_uj);
    println!("  on-chip SRAM     {:>10.3} uJ", e.sram_uj);
    println!("  GRF broadcast    {:>10.3} uJ", e.grf_uj);
    println!("  off-chip DRAM    {:>10.3} uJ", e.dram_uj);
    println!(
        "  total            {:>10.3} uJ ({:.1} % on-chip)",
        e.total_uj(),
        e.onchip_fraction() * 100.0
    );
    Ok(())
}
