//! `npcgra disasm`: compile a mapping into configuration memory and print
//! the disassembled contexts (the inverse view of Fig. 3).

use npcgra::kernels::{ConfigImage, DwcGeneralMapping, DwcS1Mapping, PwcMapping};
use npcgra::ConvKind;

use crate::args::{Flags, LAYER_FLAGS};

pub fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &format!("machine {LAYER_FLAGS}"))?;
    let spec = flags.machine()?;
    let layer = flags.layer()?;

    let image = match layer.kind() {
        ConvKind::Pointwise => ConfigImage::compile(
            &PwcMapping::new(layer.in_channels(), &spec, 0).with_activation(layer.activation()),
            &spec,
        ),
        ConvKind::Depthwise if layer.s() == 1 && layer.k() * layer.k() <= npcgra::arch::grf::GRF_WORDS => ConfigImage::compile(
            &DwcS1Mapping::new(layer.k(), &spec, 0).with_activation(layer.activation()),
            &spec,
        ),
        _ => ConfigImage::compile(
            &DwcGeneralMapping::new(layer.k(), layer.s(), &spec, 0).with_activation(layer.activation()),
            &spec,
        ),
    }
    .map_err(|e| e.to_string())?;

    println!(
        "configuration memory for {layer} on {}x{}: {} contexts, {} bits/context ({} bytes total)",
        spec.rows,
        spec.cols,
        image.num_contexts(),
        image.bits_per_context(),
        image.total_bits() / 8
    );
    println!();
    print!("{}", image.disassemble());
    Ok(())
}
