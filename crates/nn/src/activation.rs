//! Fused activation functions.
//!
//! The paper's introduction motivates CGRAs over hard DPUs precisely with
//! this kind of flexibility: "supporting new activation functions (e.g.,
//! leaky ReLU)". We model activations as a per-layer post-op. On NP-CGRA a
//! ReLU costs *zero extra cycles*: the pipeline-bubble cycle between the
//! MAC phase and the store phase executes `max(acc, 0)` in place on every
//! PE. Leaky ReLU (with a power-of-two slope, the common hardware choice)
//! adds one more cycle per tile: a conditional arithmetic-shift select.

use crate::{truncate, Acc, Word};

/// A per-layer activation applied to every output element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// No activation (linear output).
    #[default]
    None,
    /// `max(x, 0)`.
    Relu,
    /// `x >= 0 ? x : x >> shift` — leaky ReLU with slope `2^-shift`
    /// (arithmetic shift, the hardware-friendly form of the paper's leaky
    /// ReLU citation).
    LeakyRelu {
        /// Negative-slope shift amount (`1..=15`).
        shift: u8,
    },
}

impl Activation {
    /// Apply to an accumulator value (before 16-bit truncation).
    #[inline]
    #[must_use]
    pub fn apply_acc(self, x: Acc) -> Acc {
        match self {
            Activation::None => x,
            Activation::Relu => x.max(0),
            Activation::LeakyRelu { shift } => {
                if x >= 0 {
                    x
                } else {
                    x >> shift
                }
            }
        }
    }

    /// Apply to a datapath word.
    #[must_use]
    pub fn apply(self, x: Word) -> Word {
        truncate(self.apply_acc(Acc::from(x)))
    }

    /// Extra tile cycles the activation costs on NP-CGRA: ReLU reuses the
    /// pipeline bubble (0); leaky ReLU runs `max(x, x >> shift)` as a
    /// save / shift / max sequence, two cycles beyond the bubble.
    #[must_use]
    pub fn extra_tile_cycles(self) -> u64 {
        match self {
            Activation::None | Activation::Relu => 0,
            Activation::LeakyRelu { .. } => 2,
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Activation::None => f.write_str("linear"),
            Activation::Relu => f.write_str("relu"),
            Activation::LeakyRelu { shift } => write!(f, "leaky-relu(2^-{shift})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-5), 0);
        assert_eq!(Activation::Relu.apply(7), 7);
    }

    #[test]
    fn leaky_relu_shifts_negatives() {
        let a = Activation::LeakyRelu { shift: 2 };
        assert_eq!(a.apply(8), 8);
        assert_eq!(a.apply(-8), -2);
        // Arithmetic shift rounds toward negative infinity.
        assert_eq!(a.apply(-7), -2);
    }

    #[test]
    fn none_is_identity() {
        for x in [-100i16, 0, 100] {
            assert_eq!(Activation::None.apply(x), x);
        }
    }

    #[test]
    fn cycle_costs() {
        assert_eq!(Activation::Relu.extra_tile_cycles(), 0);
        assert_eq!(Activation::LeakyRelu { shift: 3 }.extra_tile_cycles(), 2);
    }

    #[test]
    fn leaky_relu_is_max_of_x_and_shifted_x() {
        // The hardware identity the mapping epilogue uses.
        let a = Activation::LeakyRelu { shift: 3 };
        for x in [-1000i32, -9, -1, 0, 5, 1000] {
            assert_eq!(a.apply_acc(x), x.max(x >> 3));
        }
    }

    #[test]
    fn acc_level_application_before_truncation() {
        // The activation sees the full 32-bit accumulator: a large positive
        // value is clamped at the acc level, then truncated.
        let big: Acc = 70_000;
        assert_eq!(Activation::Relu.apply_acc(big), big);
        assert_eq!(Activation::Relu.apply_acc(-big), 0);
    }
}
