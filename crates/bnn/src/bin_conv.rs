//! The batch path's `BinConv` engine: XOR–popcount–threshold over
//! channel-packed maps, one safe-Rust body that
//! `mp_tensor::simd::run_popcount` builds for AVX-512 VPOPCNTDQ, for
//! AVX2 and for baseline x86-64, picked per call by CPUID.
//!
//! FINN compares each output channel's popcount itself against a folded
//! threshold. Here a row's dot is `fan_in − 2·d` with
//! `d = Σ popcount(w ^ x)` over the patch, and `HwThreshold::fires` is
//! monotone in `d`, so the checked constructor folds every threshold
//! once into the range `lo ≤ d ≤ hi` on which the row fires (see
//! [`popcount_range`]). `d` is an integer sum, so neither the lane width
//! nor the popcount instruction can change it: every tier is
//! bit-identical to `HardwareBnn::infer_image`.

use mp_tensor::simd::{run_popcount, Tier, TierBody};

use crate::bits::BitMatrix;
use crate::hardware::HwThreshold;

/// Weight rows per kernel group: one `u64` popcount lane each, so a
/// group's eight lanes fill one 512-bit register.
const GROUP: usize = 8;

/// The range no popcount falls in (`lo > hi`): the row never fires.
const NEVER: (u32, u32) = (1, 0);

/// One `BinConv` engine in the layout its kernel reads, built once at
/// construction.
#[derive(Debug, Clone)]
pub(crate) struct PackedConv {
    /// Weight rows interleaved eight to a word in the channel-packed
    /// patch order `(ky, kx, ch)`: `[⌈od/8⌉][plen][8]` with
    /// `plen = k·k·⌈c/64⌉`, patch word `(ky·k + kx)·⌈c/64⌉ + ch/64`
    /// holding channel `ch` at bit `ch % 64`. Padding bits and the rows
    /// past `od` are zero.
    weights: Vec<[u64; GROUP]>,
    /// Per group, each row's firing range `(lo, hi)` as two lane arrays.
    /// Rows past `od` get [`NEVER`], so the next map's padding bits stay
    /// zero, which the next engine's XOR relies on.
    ranges: Vec<([u32; GROUP], [u32; GROUP])>,
    /// Kernel edge `k`.
    kernel: usize,
    /// Output channels `od`.
    out_channels: usize,
}

impl PackedConv {
    /// Repacks a `BinConv` weight matrix (reference columns in
    /// `(ch, ky, kx)` order over `c` input channels and a `k`×`k`
    /// kernel) and folds its thresholds, one per row, into popcount
    /// ranges. The checked constructor has bounded the fan-in to `u32`.
    pub(crate) fn new(weights: &BitMatrix, thresholds: &[HwThreshold], c: usize, k: usize) -> Self {
        let fan_in = u32::try_from(weights.num_cols())
            .expect("checked construction bounds the BinConv fan-in to u32");
        let cw = c.div_ceil(64);
        let plen = k * k * cw;
        let groups = weights.num_rows().div_ceil(GROUP);
        let mut packed = vec![[0u64; GROUP]; groups * plen];
        let mut ranges = vec![([NEVER.0; GROUP], [NEVER.1; GROUP]); groups];
        for (oc, &t) in thresholds.iter().enumerate() {
            let (g, lane) = (oc / GROUP, oc % GROUP);
            let dst = &mut packed[g * plen..][..plen];
            // Visit the row's set bits only: column `ch·k² + tap`, with
            // `tap = ky·k + kx`.
            for (wi, &word) in weights.row(oc).words().iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let col = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let (ch, tap) = (col / (k * k), col % (k * k));
                    dst[tap * cw + ch / 64][lane] |= 1 << (ch % 64);
                }
            }
            (ranges[g].0[lane], ranges[g].1[lane]) = popcount_range(t, fan_in);
        }
        Self {
            weights: packed,
            ranges,
            kernel: k,
            out_channels: weights.num_rows(),
        }
    }

    /// Runs the engine over one channel-packed `(c, h, w)` map on `tier`,
    /// or on the portable build when the CPU lacks the tier's features,
    /// writing the channel-packed output map into `next` and returning
    /// its `(od, oh, ow)`. `patch` is scratch.
    pub(crate) fn run(
        &self,
        tier: Tier,
        map: &[u64],
        dims: (usize, usize, usize),
        patch: &mut Vec<u64>,
        next: &mut Vec<u64>,
    ) -> (usize, usize, usize) {
        let call = ConvCall {
            conv: self,
            map,
            dims,
            patch,
            next,
        };
        run_popcount(tier, call)
    }
}

/// One [`PackedConv::run`] call, the body `run_popcount` builds per tier.
struct ConvCall<'a> {
    conv: &'a PackedConv,
    map: &'a [u64],
    dims: (usize, usize, usize),
    patch: &'a mut Vec<u64>,
    next: &'a mut Vec<u64>,
}

impl TierBody for ConvCall<'_> {
    type Output = (usize, usize, usize);

    #[inline(always)]
    fn run(self) -> Self::Output {
        conv_body(self.conv, self.map, self.dims, self.patch, self.next)
    }
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

/// The one `BinConv` body. Per output pixel it gathers the patch (`k`
/// runs of `k·⌈c/64⌉` contiguous map words, in the weights' `(ky, kx,
/// ch)` order), then per group of eight rows accumulates
/// `(w ^ x).count_ones()` into eight `u64` lanes and sets each row's
/// output bit by `lo ≤ d ≤ hi`. Group `g`'s byte lands at bit `8·(g % 8)`
/// of the pixel's output word `g / 8`. Padding bits are zero in map and
/// weights alike, so they XOR to 0.
#[inline(always)]
fn conv_body(
    conv: &PackedConv,
    map: &[u64],
    (c, h, w): (usize, usize, usize),
    patch: &mut Vec<u64>,
    next: &mut Vec<u64>,
) -> (usize, usize, usize) {
    let k = conv.kernel;
    let (oh, ow) = (h - k + 1, w - k + 1);
    let (cw, ocw) = (c.div_ceil(64), conv.out_channels.div_ceil(64));
    let (run, plen) = (k * cw, k * k * cw);
    patch.clear();
    patch.resize(plen, 0);
    next.clear();
    next.resize(oh * ow * ocw, 0);
    for oy in 0..oh {
        for ox in 0..ow {
            for (ky, dst) in patch.chunks_exact_mut(run).enumerate() {
                let src = ((oy + ky) * w + ox) * cw;
                dst.copy_from_slice(&map[src..src + run]);
            }
            let out = &mut next[(oy * ow + ox) * ocw..][..ocw];
            // One flat pass over every group's weight words: `d` holds the
            // current group's eight popcounts and is thresholded and reset
            // after the group's last word. A loop per group would make `d`
            // a loop reduction, which LLVM vectorizes across patch words
            // (strided gathers) instead of across the eight lanes.
            let mut d = [0u64; GROUP];
            let (mut j, mut g) = (0, 0);
            for row_words in &conv.weights {
                let x = patch[j];
                for (acc, &wl) in d.iter_mut().zip(row_words) {
                    *acc += u64::from((wl ^ x).count_ones());
                }
                j += 1;
                if j == plen {
                    let (lo, hi) = &conv.ranges[g];
                    let mut byte = 0u64;
                    for (lane, ((&d, &lo), &hi)) in d.iter().zip(lo).zip(hi).enumerate() {
                        byte |= u64::from((u64::from(lo) <= d) & (d <= u64::from(hi))) << lane;
                    }
                    out[g / 8] |= byte << (8 * (g % 8));
                    (d, j, g) = ([0; GROUP], 0, g + 1);
                }
            }
        }
    }
    (conv.out_channels, oh, ow)
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
