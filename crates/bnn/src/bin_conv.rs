//! The batch path's `BinConv` engines: each engine's weights repacked
//! and its thresholds folded into popcount ranges for
//! `mp_tensor::simd::PopcountConv`, the XOR–popcount–threshold kernel
//! that module builds for AVX-512 VPOPCNTDQ, for AVX2 and portably.
//!
//! FINN compares each output channel's popcount itself against a folded
//! threshold. Here a row's dot is `fan_in − 2·d` with
//! `d = Σ popcount(w ^ x)` over the patch, and `HwThreshold::fires` is
//! monotone in `d`, so the checked constructor folds every threshold
//! once into the range `lo ≤ d ≤ hi` on which the row fires (see
//! [`popcount_range`]). `d` is an integer sum, so neither the lane width
//! nor the popcount instruction can change it: every tier is
//! bit-identical to `HardwareBnn::infer_image`.

use mp_tensor::simd::PopcountConv;
use mp_tensor::ShapeError;

use crate::bits::BitMatrix;
use crate::hardware::HwThreshold;

/// The range no popcount falls in (`lo > hi`): the row never fires.
const NEVER: (u32, u32) = (1, 0);

/// Packs a `BinConv` weight matrix (reference columns in `(ch, ky, kx)`
/// order over `c` input channels and a `k`×`k` kernel) into the
/// channel-packed patch order `(ky, kx, ch)`: patch word
/// `(ky·k + kx)·⌈c/64⌉ + ch/64` holds channel `ch` at bit `ch % 64`, and
/// padding bits are zero, as in the maps, so they XOR to 0. Each row's
/// threshold is folded into its popcount range. The checked constructor
/// has bounded the fan-in to `u32`.
pub(crate) fn pack(
    weights: &BitMatrix,
    thresholds: &[HwThreshold],
    c: usize,
    k: usize,
) -> Result<PopcountConv, ShapeError> {
    let fan_in = u32::try_from(weights.num_cols())
        .expect("checked construction bounds the BinConv fan-in to u32");
    let cw = c.div_ceil(64);
    PopcountConv::new(weights.num_rows(), (cw, k), |oc, dst| {
        // Visit the row's set bits only: column `ch·k² + tap`, with
        // `tap = ky·k + kx`.
        for (wi, &word) in weights.row(oc).words().iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let col = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (ch, tap) = (col / (k * k), col % (k * k));
                dst[tap * cw + ch / 64] |= 1 << (ch % 64);
            }
        }
        popcount_range(thresholds[oc], fan_in)
    })
}

/// The popcount range `(lo, hi)` on which `t.fires(fan_in − 2·d)` holds
/// for `d` in `0..=fan_in`, or [`NEVER`] when it holds for none.
///
/// With `slack = fan_in − bound`, `fan_in − 2d ≥ bound` iff
/// `d ≤ ⌊slack/2⌋`, and `fan_in − 2d ≤ bound` iff `d ≥ ⌈slack/2⌉`.
/// `slack` is computed in `i128`, since `HwThreshold::fold` emits
/// `i64::MIN`/`i64::MAX` for a degenerate batch-norm, and the range is
/// clamped to `0..=fan_in`.
fn popcount_range(t: HwThreshold, fan_in: u32) -> (u32, u32) {
    let n = i128::from(fan_in);
    let slack = n - i128::from(t.bound);
    let (lo, hi) = if t.negate {
        ((slack + 1).div_euclid(2).max(0), n)
    } else {
        (0, slack.div_euclid(2).min(n))
    };
    if lo > hi {
        return NEVER;
    }
    let lane = |v: i128| u32::try_from(v).expect("clamped to 0..=fan_in");
    (lane(lo), lane(hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `fires(fan_in − 2d)` written out for every `d`, the definition
    /// the range must reproduce.
    fn firing(t: HwThreshold, fan_in: u32) -> Vec<bool> {
        (0..=i64::from(fan_in))
            .map(|d| t.fires(i64::from(fan_in) - 2 * d))
            .collect()
    }

    #[test]
    fn popcount_range_is_exactly_where_the_threshold_fires() {
        for fan_in in [0u32, 1, 2, 9, 64, 575, 576] {
            let n = i64::from(fan_in);
            let mut bounds = vec![i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1];
            bounds.extend((-n - 3..=n + 3).step_by(if fan_in > 64 { 7 } else { 1 }));
            bounds.extend([-n - 1, -n, -n + 1, -1, 0, 1, n - 1, n, n + 1]);
            for bound in bounds {
                for negate in [false, true] {
                    let t = HwThreshold { bound, negate };
                    let (lo, hi) = popcount_range(t, fan_in);
                    let want = firing(t, fan_in);
                    let got: Vec<bool> = (0..=fan_in).map(|d| lo <= d && d <= hi).collect();
                    assert_eq!(got, want, "fan_in={fan_in} bound={bound} negate={negate}");
                    if !want.contains(&true) {
                        assert_eq!((lo, hi), NEVER, "an empty range is canonical");
                    }
                }
            }
        }
    }
}
