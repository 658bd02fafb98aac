//! Data layouts (Figs. 9–11).
//!
//! These builders produce the per-bank word images that DMA deposits into
//! H-MEM / V-MEM for one block, laid out so the AGU algorithms (Algorithms
//! 1–3) read exactly the right word every cycle with no bank conflicts. They
//! also produce the [`OfmSlot`] map used to pull finished outputs back out
//! of the H-MEM OFM region after the block completes.
//!
//! All IFM coordinates here are *padded-image* coordinates: convolution
//! padding is materialized in external memory before blocking (the paper's
//! layouts never special-case borders), and edge blocks that reach past the
//! image read zeros and produce outputs that simply are not extracted.

use npcgra_nn::{Tensor, Word};

use crate::tiling::BlockCfg;

/// One OFM element's resting place in the H-MEM OFM region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfmSlot {
    /// H-MEM bank.
    pub bank: usize,
    /// In-bank word offset.
    pub offset: usize,
    /// Output channel.
    pub c: usize,
    /// Output row.
    pub y: usize,
    /// Output column.
    pub x: usize,
}

fn get_or_zero(t: &Tensor, c: usize, y: usize, x: usize) -> Word {
    let (tc, th, tw) = t.shape();
    if c < tc && y < th && x < tw {
        t.get(c, y, x)
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// PWC (Fig. 9)
// ---------------------------------------------------------------------------

/// PWC H-MEM image for the block covering pixels `p0..p0+B_r·N_r` of image
/// row `y`: bank `r` holds the channel vectors of pixels `p0 + g·N_r + r`
/// back-to-back (`g = 0..B_r`), followed by the zeroed OFM region.
///
/// Returns `(bank_images, addr_ofm)`.
#[must_use]
pub fn pwc_h_image(ifm: &Tensor, y: usize, p0: usize, cfg: BlockCfg, nr: usize, nc: usize) -> (Vec<Vec<Word>>, usize) {
    let ni = ifm.channels();
    let addr_ofm = cfg.b_r * ni;
    let total = addr_ofm + cfg.b_r * cfg.b_c * nc;
    let banks = (0..nr)
        .map(|r| {
            let mut bank = vec![0; total];
            for g in 0..cfg.b_r {
                let p = p0 + g * nr + r;
                for i in 0..ni {
                    bank[g * ni + i] = get_or_zero(ifm, i, y, p);
                }
            }
            bank
        })
        .collect();
    (banks, addr_ofm)
}

/// PWC V-MEM image for output channels `o0..o0+B_c·N_c`: bank `c` holds the
/// `N_i`-long weight columns of channels `o0 + g·N_c + c` back-to-back.
/// `weights` is the `(N_o, 1, N_i)` pointwise weight tensor.
#[must_use]
pub fn pwc_v_image(weights: &Tensor, o0: usize, cfg: BlockCfg, nc: usize) -> Vec<Vec<Word>> {
    let ni = weights.width();
    (0..nc)
        .map(|c| {
            let mut bank = vec![0; cfg.b_c * ni];
            for g in 0..cfg.b_c {
                let oc = o0 + g * nc + c;
                for i in 0..ni {
                    bank[g * ni + i] = get_or_zero(weights, oc, 0, i);
                }
            }
            bank
        })
        .collect()
}

/// OFM extraction map for a PWC block (skips padding pixels/channels).
#[must_use]
#[allow(clippy::too_many_arguments)] // geometry parameters mirror the AGU fields
pub fn pwc_ofm_slots(
    y: usize,
    p0: usize,
    o0: usize,
    cfg: BlockCfg,
    nr: usize,
    nc: usize,
    n_w: usize,
    n_o: usize,
    addr_ofm: usize,
) -> Vec<OfmSlot> {
    let mut slots = Vec::new();
    for tid_r in 0..cfg.b_r {
        for r in 0..nr {
            let p = p0 + tid_r * nr + r;
            if p >= n_w {
                continue;
            }
            for tid_c in 0..cfg.b_c {
                for j in 0..nc {
                    let oc = o0 + tid_c * nc + j;
                    if oc >= n_o {
                        continue;
                    }
                    slots.push(OfmSlot {
                        bank: r,
                        offset: addr_ofm + tid_r * nc * cfg.b_c + tid_c * nc + j,
                        c: oc,
                        y,
                        x: p,
                    });
                }
            }
        }
    }
    slots
}

// ---------------------------------------------------------------------------
// DWC, arbitrary stride (Fig. 10)
// ---------------------------------------------------------------------------

/// DWC-general H-MEM image for one channel of the *padded* IFM, for the
/// block whose output origin is `(r0, c0)`: every run of `S` consecutive
/// input rows goes to the next bank round-robin; rows within a bank are
/// concatenated, each `block_w = S·(B_c·N_c−1)+K` words wide.
///
/// Returns `(bank_images, addr_ofm)`.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn dwc_general_h_image(
    padded: &Tensor,
    ch: usize,
    r0: usize,
    c0: usize,
    cfg: BlockCfg,
    nr: usize,
    nc: usize,
    k: usize,
    s: usize,
) -> (Vec<Vec<Word>>, usize) {
    let block_w = s * (cfg.b_c * nc - 1) + k;
    let input_rows = (cfg.b_r * nr - 1) * s + k;
    let addr_ofm = dwc_general_addr_ofm(cfg, nr, nc, k, s);
    let total = addr_ofm + cfg.b_r * cfg.b_c * nc;
    let mut banks = vec![vec![0; total]; nr];
    for u in 0..input_rows {
        let g = u / s;
        let bank = g % nr;
        let slot = g / nr;
        for x in 0..block_w {
            banks[bank][slot * block_w * s + (u % s) * block_w + x] = get_or_zero(padded, ch, r0 * s + u, c0 * s + x);
        }
    }
    (banks, addr_ofm)
}

/// Where the OFM region starts in a [`dwc_general_h_image`] bank: past the
/// `S`-row groups dealt round-robin over the `N_r` banks.
#[must_use]
pub fn dwc_general_addr_ofm(cfg: BlockCfg, nr: usize, nc: usize, k: usize, s: usize) -> usize {
    let block_w = s * (cfg.b_c * nc - 1) + k;
    let input_rows = (cfg.b_r * nr - 1) * s + k;
    let slots_per_bank = input_rows.div_ceil(s).div_ceil(nr);
    slots_per_bank * block_w * s
}

/// DWC-general V-MEM image: the channel's `K×K` kernel, row-major,
/// duplicated in every bank (§5.2).
#[must_use]
pub fn dwc_v_image(weights: &Tensor, ch: usize, k: usize, nc: usize) -> Vec<Vec<Word>> {
    let kernel: Vec<Word> = (0..k * k).map(|i| weights.get(ch, i / k, i % k)).collect();
    vec![kernel; nc]
}

/// OFM extraction map shared by both DWC mappings (they use the same store
/// layout): output `(r0 + tid_r·N_r + r, c0 + tid_c·N_c + j)` of channel
/// `ch` rests in bank `r` at `addr_ofm + tid_r·N_c·B_c + tid_c·N_c + j`.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn dwc_ofm_slots(
    ch: usize,
    r0: usize,
    c0: usize,
    cfg: BlockCfg,
    nr: usize,
    nc: usize,
    n_h: usize,
    n_w: usize,
    addr_ofm: usize,
) -> Vec<OfmSlot> {
    let mut slots = Vec::new();
    for tid_r in 0..cfg.b_r {
        for r in 0..nr {
            let oy = r0 + tid_r * nr + r;
            if oy >= n_h {
                continue;
            }
            for tid_c in 0..cfg.b_c {
                for j in 0..nc {
                    let ox = c0 + tid_c * nc + j;
                    if ox >= n_w {
                        continue;
                    }
                    slots.push(OfmSlot {
                        bank: r,
                        offset: addr_ofm + tid_r * nc * cfg.b_c + tid_c * nc + j,
                        c: ch,
                        y: oy,
                        x: ox,
                    });
                }
            }
        }
    }
    slots
}

// ---------------------------------------------------------------------------
// DWC, stride 1 (Fig. 11)
// ---------------------------------------------------------------------------

/// Stride-1 DWC H-MEM image: input row `u` (block-local) goes to bank
/// `u mod N_r`, rows within a bank concatenated at `block_w = B_c·N_c+K−1`
/// words each.
///
/// Returns `(bank_images, addr_ofm)`.
#[must_use]
#[allow(clippy::too_many_arguments)] // geometry parameters mirror the AGU fields
pub fn dwc_s1_h_image(
    padded: &Tensor,
    ch: usize,
    r0: usize,
    c0: usize,
    cfg: BlockCfg,
    nr: usize,
    nc: usize,
    k: usize,
) -> (Vec<Vec<Word>>, usize) {
    let block_w = cfg.b_c * nc + k - 1;
    let input_rows = cfg.b_r * nr + k - 1;
    let addr_ofm = dwc_s1_addr_ofm(cfg, nr, nc, k);
    let total = addr_ofm + cfg.b_r * cfg.b_c * nc;
    let mut banks = vec![vec![0; total]; nr];
    for u in 0..input_rows {
        let bank = u % nr;
        let slot = u / nr;
        for x in 0..block_w {
            banks[bank][slot * block_w + x] = get_or_zero(padded, ch, r0 + u, c0 + x);
        }
    }
    (banks, addr_ofm)
}

/// Where the OFM region starts in a [`dwc_s1_h_image`] bank: past the
/// input rows dealt round-robin over the `N_r` banks.
#[must_use]
pub fn dwc_s1_addr_ofm(cfg: BlockCfg, nr: usize, nc: usize, k: usize) -> usize {
    let block_w = cfg.b_c * nc + k - 1;
    let input_rows = cfg.b_r * nr + k - 1;
    input_rows.div_ceil(nr) * block_w
}

/// Stride-1 DWC V-MEM image (Fig. 11): only the values the SS phases need.
/// For tile row `tid_r` and kernel row `ky ∈ 1..K`, V-bank `c` holds
/// `X(tid_r·N_r + N_r−1 + ky, tid_c·N_c + c + kx(ky))` with
/// `kx = K−1` for odd `ky` and `0` for even `ky`, ordered
/// `(tid_r, ky, tid_c)`.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn dwc_s1_v_image(
    padded: &Tensor,
    ch: usize,
    r0: usize,
    c0: usize,
    cfg: BlockCfg,
    nr: usize,
    nc: usize,
    k: usize,
) -> Vec<Vec<Word>> {
    let entries = cfg.b_r * k.saturating_sub(1) * cfg.b_c;
    (0..nc)
        .map(|c| {
            let mut bank = vec![0; entries.max(1)];
            for tid_r in 0..cfg.b_r {
                for ky in 1..k {
                    let kx = if ky % 2 == 1 { k - 1 } else { 0 };
                    for tid_c in 0..cfg.b_c {
                        let u = tid_r * nr + nr - 1 + ky;
                        let x = tid_c * nc + c + kx;
                        bank[tid_r * (k - 1) * cfg.b_c + (ky - 1) * cfg.b_c + tid_c] = get_or_zero(padded, ch, r0 + u, c0 + x);
                    }
                }
            }
            bank
        })
        .collect()
}

/// GRF image for one DWC channel: the `K×K` kernel, row-major (the
/// boustrophedon order is applied by the GRF *index* sequence, not the
/// storage).
#[must_use]
pub fn dwc_grf_image(weights: &Tensor, ch: usize, k: usize) -> Vec<Word> {
    (0..k * k).map(|i| weights.get(ch, i / k, i % k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use npcgra_nn::Tensor;

    #[test]
    fn fig9_pwc_bank_assignment() {
        // 3-row machine: pixels 0,3,6.. in bank 0; 1,4,7.. in bank 1; etc.,
        // with channel vectors contiguous (Fig. 9b).
        let ni = 4;
        let ifm = Tensor::from_fn(ni, 1, 9, |i, _, p| (p * 10 + i) as Word);
        let cfg = BlockCfg { b_r: 3, b_c: 1 };
        let (banks, addr_ofm) = pwc_h_image(&ifm, 0, 0, cfg, 3, 2);
        assert_eq!(addr_ofm, 3 * ni);
        // Bank 0: pixel 0 then 3 then 6.
        assert_eq!(banks[0][0], 0);
        assert_eq!(banks[0][ni], 30);
        assert_eq!(banks[0][2 * ni + 1], 61);
        // Bank 2: pixel 2 then 5 then 8.
        assert_eq!(banks[2][0], 20);
        assert_eq!(banks[2][ni + 3], 53);
    }

    #[test]
    fn pwc_v_image_partitions_channels() {
        let w = Tensor::from_fn(8, 1, 3, |o, _, i| (o * 10 + i) as Word);
        let cfg = BlockCfg { b_r: 1, b_c: 2 };
        let banks = pwc_v_image(&w, 0, cfg, 4);
        // Bank 1 holds channels 1 then 5.
        assert_eq!(banks[1][0], 10);
        assert_eq!(banks[1][3], 50);
        assert_eq!(banks[1][4], 51);
    }

    #[test]
    fn pwc_edge_pixels_are_zero_padded() {
        let ifm = Tensor::from_fn(2, 1, 5, |_, _, _| 7);
        let cfg = BlockCfg { b_r: 2, b_c: 1 };
        let (banks, _) = pwc_h_image(&ifm, 0, 4, cfg, 2, 2);
        assert_eq!(banks[0][0], 7); // pixel 4 valid
        assert_eq!(banks[1][0], 0); // pixel 5 out of range
    }

    #[test]
    fn pwc_ofm_slots_skip_padding() {
        let cfg = BlockCfg { b_r: 1, b_c: 1 };
        let slots = pwc_ofm_slots(0, 2, 2, cfg, 4, 4, 5, 3, 100);
        // Pixels 2..5 valid (3 of 4 rows), channels 2..3 valid (1 of 4).
        assert_eq!(slots.len(), 3);
        assert!(slots.iter().all(|s| s.x < 5 && s.c < 3));
        assert_eq!(slots[0].offset, 100);
    }

    #[test]
    fn fig10_dwc_general_bank_assignment() {
        // S=2, 3-bank example of Fig. 10: rows 0-1 → bank 0, 2-3 → bank 1,
        // 4-5 → bank 2, 6-7 → bank 0 again.
        let padded = Tensor::from_fn(1, 12, 12, |_, y, x| (y * 16 + x) as Word);
        let cfg = BlockCfg { b_r: 1, b_c: 1 };
        let (banks, _) = dwc_general_h_image(&padded, 0, 0, 0, cfg, 3, 3, 3, 2);
        let block_w = 2 * (3 - 1) + 3; // 7
                                       // Bank 0 row 0 (u=0) at offset 0; row 1 (u=1) at offset block_w.
        assert_eq!(banks[0][0], 0);
        assert_eq!(banks[0][block_w], 16);
        // Bank 1 row 2 (u=2, group 1).
        assert_eq!(banks[1][0], 32);
        // u=6 (group 3) wraps to bank 0, slot 1.
        assert_eq!(banks[0][block_w * 2], 96);
    }

    #[test]
    fn dwc_v_image_is_duplicated_kernel() {
        let w = Tensor::from_fn(2, 3, 3, |c, ky, kx| (c * 100 + ky * 10 + kx) as Word);
        let banks = dwc_v_image(&w, 1, 3, 4);
        assert_eq!(banks.len(), 4);
        for b in &banks {
            assert_eq!(b[0], 100);
            assert_eq!(b[5], 112);
            assert_eq!(b[8], 122);
        }
    }

    #[test]
    fn fig11_dwc_s1_v_entries() {
        // 3×3 machine, K=3 on an 11-wide padded image (Fig. 11): bank 0
        // holds X(3, 2), X(3, 5), X(3, 8) then X(4, 0), X(4, 3), X(4, 6).
        let padded = Tensor::from_fn(1, 11, 11, |_, y, x| (y * 16 + x) as Word);
        let cfg = BlockCfg { b_r: 1, b_c: 3 };
        let banks = dwc_s1_v_image(&padded, 0, 0, 0, cfg, 3, 3, 3);
        let v = |y: usize, x: usize| (y * 16 + x) as Word;
        assert_eq!(banks[0][0], v(3, 2));
        assert_eq!(banks[0][1], v(3, 5));
        assert_eq!(banks[0][2], v(3, 8));
        assert_eq!(banks[0][3], v(4, 0));
        assert_eq!(banks[0][4], v(4, 3));
        assert_eq!(banks[0][5], v(4, 6));
        assert_eq!(banks[1][0], v(3, 3));
        assert_eq!(banks[2][3], v(4, 2));
    }

    #[test]
    fn dwc_s1_h_rows_round_robin() {
        let padded = Tensor::from_fn(1, 8, 8, |_, y, x| (y * 16 + x) as Word);
        let cfg = BlockCfg { b_r: 1, b_c: 1 };
        let (banks, addr_ofm) = dwc_s1_h_image(&padded, 0, 0, 0, cfg, 2, 2, 3);
        let block_w = 2 + 2; // B_c·N_c + K−1
                             // Rows 0,2 in bank 0; rows 1,3 in bank 1.
        assert_eq!(banks[0][0], 0);
        assert_eq!(banks[0][block_w], 32);
        assert_eq!(banks[1][0], 16);
        assert_eq!(banks[1][block_w + 1], 49);
        // input_rows = 2+2 = 4 → 2 slots per bank.
        assert_eq!(addr_ofm, 2 * block_w);
    }

    #[test]
    fn dwc_ofm_slots_geometry() {
        let cfg = BlockCfg { b_r: 2, b_c: 2 };
        let slots = dwc_ofm_slots(3, 0, 0, cfg, 2, 2, 4, 4, 50);
        assert_eq!(slots.len(), 16);
        let s = slots.iter().find(|s| s.y == 3 && s.x == 2).unwrap();
        // tid_r=1, r=1, tid_c=1, j=0 → bank 1, offset 50 + 1·2·2 + 1·2.
        assert_eq!((s.bank, s.offset, s.c), (1, 50 + 4 + 2, 3));
    }

    #[test]
    fn grf_image_row_major() {
        let w = Tensor::from_fn(1, 3, 3, |_, ky, kx| (ky * 3 + kx) as Word);
        assert_eq!(dwc_grf_image(&w, 0, 3), (0..9).map(|i| i as Word).collect::<Vec<_>>());
    }
}
