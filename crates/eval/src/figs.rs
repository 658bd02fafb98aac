//! The text figures: per-cycle schedules (Figs. 1, 5, 6) and bank layouts
//! (Figs. 9–11). They print structure, not numbers, so they add no rows.
//! (For a full per-PE instruction dump, run `cargo run --example
//! schedule_viewer`.)

use npcgra_agu::dwc_s1::S1Phase;
use npcgra_agu::{MemRequest, PwcAgu, TileClock, TilePos};
use npcgra_arch::CgraSpec;
use npcgra_kernels::{layout, BlockCfg, DwcGeneralMapping, DwcS1Mapping};
use npcgra_nn::Tensor;

use crate::Report;

/// Every cycle of a tile whose phases `phase_len` defines, with its clock.
fn cycles(phase_len: impl Fn(u64) -> Option<u64>) -> Vec<(u64, TileClock)> {
    let (mut clock, mut out) = (TileClock::start(), Vec::new());
    let mut remaining = phase_len(0).expect("phase 0");
    loop {
        out.push((out.len() as u64, clock));
        remaining -= 1;
        let wrap = remaining == 0;
        if wrap {
            let Some(len) = phase_len(clock.t_wrap + 1) else { return out };
            remaining = len;
        }
        clock.step(wrap);
    }
}

/// Figs. 1, 5 and 6: per-cycle phase and operand-source tables for each
/// mapping on the paper's 2×2 examples.
pub(crate) fn fig_schedules() -> Report {
    let (pos, spec) = (TilePos::first(1, 1), CgraSpec::np_cgra(2, 2));
    let mut r = Report::default();
    let opt = |v: Option<MemRequest>| v.map_or("-".to_string(), |q| q.to_string());

    r.text += "Fig. 1: PWC tile on a 2x2 (N_i = 9): H-bus feeds rows, V-bus feeds columns\n";
    let pwc = PwcAgu {
        ni: 9,
        nc: 2,
        addr_ifm: 0,
        addr_ofm: 100,
        addr_w: 0,
    };
    for (t, c) in cycles(|w| pwc.phase_len(w)) {
        let h: Vec<String> = (0..2).map(|row| opt(pwc.h_request(c, pos, row))).collect();
        let v: Vec<String> = (0..2).map(|col| opt(pwc.v_request(c, pos, col))).collect();
        out!(r, "  T={t:>2}  H[{}]  V[{}]", h.join(" "), v.join(" "));
    }

    r.text += "\nFig. 5: DWC general tile (K = 3, S = 2) on a 2x2: active kernel taps per column\n";
    let gen = DwcGeneralMapping::new(3, 2, &spec, 100).agu();
    for (t, c) in cycles(|w| gen.phase_len(w)) {
        let tap = |col| gen.active_tap(c, col).map_or("-".into(), |kx| format!("W{},{kx}", c.t_wrap));
        out!(r, "  T={t:>2}  col taps [{} {}]", tap(0), tap(1));
    }

    r.text += "\nFig. 6: DWC stride-1 tile (K = 3) on a 2x2: EE/SS/EW phase walk\n";
    let s1 = DwcS1Mapping::new(3, &spec, 100).agu();
    for (t, c) in cycles(|w| s1.phase_len(w)) {
        let phase = match s1.phase(c) {
            S1Phase::Prologue => "prologue (H-bus -> ORN shift west)".to_string(),
            S1Phase::ExpandEast { ky, kx } => format!("EE  W{ky},{kx} (east col loads H-bus)"),
            S1Phase::ShiftSouth { ky, kx } => format!("SS  W{ky},{kx} (south row loads V-bus)"),
            S1Phase::ExpandWest { ky, kx } => format!("EW  W{ky},{kx} (west col loads H-bus)"),
            S1Phase::Bubble => "bubble".to_string(),
            S1Phase::Store(j) => format!("store column {j}"),
        };
        out!(r, "  T={t:>2}  {phase}");
    }
    r.text += "\nGRF broadcast order (boustrophedon): W00 W01 W02 | W12 W11 W10 | W20 W21 W22\n";
    r
}

/// Figs. 9–11: bank assignment and in-bank placement for PWC H-MEM,
/// DWC-general H-MEM and DWC-S1 V-MEM.
pub(crate) fn fig_layouts() -> Report {
    let mut r = Report::default();
    let banks = |r: &mut Report, banks: Vec<&[i16]>, word: &dyn Fn(i16) -> String| {
        for (b, bank) in banks.into_iter().enumerate() {
            let words: Vec<String> = bank.iter().map(|&w| word(w)).collect();
            out!(r, "  bank {b}: {}", words.join(" "));
        }
    };

    // Fig. 9: pixel p's channel vector in bank p mod N_r; pixel.channel is
    // encoded as p*10 + i.
    r.text += "Fig. 9: PWC IFM layout in H-MEM (3 banks, N_i = 4, pixels X0..X8)\n";
    let ifm = Tensor::from_fn(4, 1, 9, |i, _, p| (p * 10 + i) as i16);
    let (image, used) = layout::pwc_h_image(&ifm, 0, 0, BlockCfg { b_r: 3, b_c: 1 }, 3, 2);
    let image = image.iter().map(|b| &b[..used]).collect();
    banks(&mut r, image, &|w| format!("X{},{}", w / 10, w % 10));

    // Fig. 10: each run of S rows to the next bank; row y, col x is encoded
    // as (y+1)*16 + x so unfilled words (0) are distinct.
    r.text += "\nFig. 10: DWC-general IFM layout in H-MEM (S = 2, 3 banks, K = 3)\n";
    let padded = Tensor::from_fn(1, 8, 8, |_, y, x| ((y + 1) * 16 + x) as i16);
    let cfg = BlockCfg { b_r: 1, b_c: 1 };
    let (image, used) = layout::dwc_general_h_image(&padded, 0, 0, 0, cfg, 3, 3, 3, 2);
    let image = image.iter().map(|b| &b[..used]).collect();
    let word = |w: i16| format!("X{},{}", w / 16 - 1, w % 16);
    banks(&mut r, image, &|w| if w == 0 { "----".into() } else { word(w) });

    // Fig. 11: the N_c-strided elements each SS cycle broadcasts.
    r.text += "\nFig. 11: DWC stride-1 SS data in V-MEM (3x3 array, K = 3, B_c = 3)\n";
    let padded = Tensor::from_fn(1, 11, 11, |_, y, x| (y * 16 + x) as i16);
    let image = layout::dwc_s1_v_image(&padded, 0, 0, 0, BlockCfg { b_r: 1, b_c: 3 }, 3, 3, 3);
    let word = |w: i16| format!("X{},{}", w / 16, w % 16);
    banks(&mut r, image.iter().map(Vec::as_slice).collect(), &word);
    r.text += "\n(compare the paper's Fig. 11b: bank 0 holds X3,2 X3,5 X3,8 X4,0 X4,3 X4,6)\n";
    r
}
