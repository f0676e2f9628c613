//! Run-time SIMD tiers: the workspace's one home for `unsafe`,
//! `#[target_feature]` and CPU feature detection.
//!
//! Three kernel families run a wider build on x86-64 CPUs that support
//! it, each picked per call by [`Tier::detected`]:
//!
//! | [`Family`] | kernel | [`Tier::Avx512`] | [`Tier::Avx2`] |
//! |---|---|---|---|
//! | `Gemm` | the packed `f32` GEMM behind `linalg::matmul_into` | AVX-512F | AVX2 |
//! | `Popcount` | a caller's XOR–popcount body, through [`run_popcount`] | AVX-512F/VL + VPOPCNTDQ | AVX2 + POPCNT |
//! | `Int` | the channel-lane integer product [`LaneWeights::sums`], ladder [`LaneLadder::levels`] and packed-word readout [`LaneLadder::words`] | AVX-512F + VNNI | AVX2 |
//!
//! The `Int` family serves two engines: `mp-int`'s `QuantBnn` dense path
//! (level ladders) and `mp-bnn`'s `HardwareBnn` first engine (`i16`
//! pixel pairs against ±1 weights, one-bound ladders read out as
//! channel-packed words).
//!
//! Every other CPU, and every tier whose features the CPU lacks, runs
//! [`Tier::Portable`]. On x86-64 the portable `i16` pair product is an
//! SSE2 `pmaddwd` body (SSE2 is part of the baseline, so no check is
//! needed); elsewhere it is plain Rust. Each tier computes the portable
//! definition's result bit for bit: the GEMM keeps one summation order,
//! and the integer kernels add integers, whose sum does not depend on
//! order. No flag,
//! environment variable, feature or configuration field selects a tier;
//! tests compare every tier of [`Tier::supported`] against the portable
//! one.
//!
//! Calling a `#[target_feature]` function is `unsafe` because the CPU
//! must support the features. Every such call below sits behind
//! [`Tier::runs`], which checks them with `is_x86_feature_detected!`.
//! The integer kernels also load and store through raw pointers into
//! slices whose lengths are checked first.

use std::ops::RangeInclusive;

use crate::ShapeError;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// A kernel family: each has its own CPU features per [`Tier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The packed `f32` GEMM of `linalg::matmul_into`.
    Gemm,
    /// XOR–popcount bodies run through [`run_popcount`].
    Popcount,
    /// The channel-lane integer kernels ([`LaneWeights`], [`LaneLadder`]).
    Int,
}

/// A build of a kernel family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Baseline build: every target, and x86-64 CPUs without the
    /// features of a wider tier.
    Portable,
    /// 256-bit build (see [`Tier::runs`] for each family's features).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 512-bit build (see [`Tier::runs`] for each family's features).
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

// Off x86-64 only the portable tier exists, and `family` goes unread.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
impl Tier {
    /// The widest tier of `family` the running CPU supports.
    pub fn detected(family: Family) -> Self {
        #[cfg(target_arch = "x86_64")]
        for tier in [Self::Avx512, Self::Avx2] {
            if tier.runs(family) {
                return tier;
            }
        }
        Self::Portable
    }

    /// Every tier of `family` the running CPU supports, the portable one
    /// first.
    pub fn supported(family: Family) -> Vec<Self> {
        #[allow(unused_mut)] // only x86-64 adds tiers
        let mut tiers = vec![Self::Portable];
        #[cfg(target_arch = "x86_64")]
        tiers.extend(
            [Self::Avx2, Self::Avx512]
                .into_iter()
                .filter(|t| t.runs(family)),
        );
        tiers
    }

    /// Whether the running CPU executes every feature `family`'s build
    /// on this tier is compiled with. Each feature list here matches the
    /// `#[target_feature]` list of that build.
    pub fn runs(self, family: Family) -> bool {
        match self {
            Self::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => match family {
                Family::Gemm | Family::Int => is_x86_feature_detected!("avx2"),
                Family::Popcount => {
                    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt")
                }
            },
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => match family {
                Family::Gemm => is_x86_feature_detected!("avx512f"),
                Family::Popcount => {
                    is_x86_feature_detected!("avx512f")
                        && is_x86_feature_detected!("avx512vl")
                        && is_x86_feature_detected!("avx512vpopcntdq")
                }
                Family::Int => {
                    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vnni")
                }
            },
        }
    }
}

// ---- GEMM ----

/// Runs `out += a × b` (`m×k` by `k×n`, row-major) on `tier`, or on the
/// portable `gemm_kernel` when the CPU lacks the tier's extension.
pub(crate) fn gemm(
    tier: Tier,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 if tier.runs(Family::Gemm) => {
            // SAFETY: `runs` just confirmed that this CPU executes
            // AVX-512F, the one feature `gemm_avx512` is compiled with.
            unsafe { gemm_avx512(m, k, n, a, b, out) }
        }
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 if tier.runs(Family::Gemm) => {
            // SAFETY: `runs` just confirmed that this CPU executes AVX2,
            // the one feature `gemm_avx2` is compiled with.
            unsafe { gemm_avx2(m, k, n, a, b, out) }
        }
        _ => crate::linalg::gemm_kernel(m, k, n, a, b, out),
    }
}

/// The packed GEMM compiled for AVX-512F: 32-lane rows in two `zmm`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gemm_avx512(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    crate::linalg::packed::packed_gemm::<32>(m, k, n, a, b, out);
}

/// The packed GEMM compiled for AVX2: 24-lane rows in three `ymm`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    crate::linalg::packed::packed_gemm::<24>(m, k, n, a, b, out);
}

// ---- Popcount ----

/// A kernel body that [`run_popcount`] compiles into each tier's build.
pub trait TierBody {
    /// What the body returns.
    type Output;

    /// Runs the body. Mark the implementation `#[inline(always)]`: the
    /// dispatch calls it from a function built for the tier's features,
    /// and only an inlined body is compiled with them.
    fn run(self) -> Self::Output;
}

/// Runs `body` built for `tier`'s popcount features (AVX-512F/VL +
/// VPOPCNTDQ, or AVX2 + POPCNT), or as baseline x86-64 when the CPU
/// lacks them. `u64::count_ones` in the body becomes `vpopcntq`, a
/// `vpshufb` nibble table, or a bit-trick sequence.
pub fn run_popcount<B: TierBody>(tier: Tier, body: B) -> B::Output {
    match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 if tier.runs(Family::Popcount) => {
            // SAFETY: `runs` just confirmed that this CPU executes
            // AVX-512F, AVX-512VL and AVX-512 VPOPCNTDQ, the features
            // `popcount_avx512` is compiled with.
            unsafe { popcount_avx512(body) }
        }
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 if tier.runs(Family::Popcount) => {
            // SAFETY: `runs` just confirmed that this CPU executes AVX2
            // and POPCNT, the features `popcount_avx2` is compiled with.
            unsafe { popcount_avx2(body) }
        }
        _ => body.run(),
    }
}

/// `body` compiled for AVX-512 VPOPCNTDQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx512vpopcntdq")]
fn popcount_avx512<B: TierBody>(body: B) -> B::Output {
    body.run()
}

/// `body` compiled for AVX2 and POPCNT.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
fn popcount_avx2<B: TierBody>(body: B) -> B::Output {
    body.run()
}

// ---- Int: the channel-lane integer kernels ----

/// `i32` lanes of one 512-bit channel group.
const LANES: usize = 16;

/// Output channels per register block: four 16-lane groups.
const BLOCK: usize = 64;

/// The activation element of an integer lane product, and with it the
/// product's form. A kernel step broadcasts 4 bytes of patch to every
/// lane:
///
/// - `u8` activations take *quads* against `i8` weights (`vpdpbusd`;
///   AVX2 `vpmaddubsw` + `vpmaddwd`);
/// - `i16` activations take *pairs* against `i16` weights (`vpdpwssd`;
///   AVX2 `vpmaddwd`).
pub trait LaneAct: Copy + Default + Into<i16> + sealed::Sealed {
    /// The weight element this activation multiplies.
    type Weight: Copy + Default + Into<i16> + std::fmt::Debug;

    /// Activations (and weights per channel) one step consumes.
    const STEP: usize;

    /// The weights every tier multiplies exactly.
    const WEIGHTS: RangeInclusive<i64>;

    /// `w` as a weight element, exact for `w` in [`Self::WEIGHTS`].
    fn narrow(w: i64) -> Self::Weight;

    /// [`LaneWeights::sums`] on `tier`, into a zeroed `out`.
    fn sums(tier: Tier, w: &LaneWeights<Self>, patches: &[Self], out: &mut [i32]);
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for i16 {}
}

impl LaneAct for u8 {
    type Weight = i8;
    const STEP: usize = 4;

    /// Quad weights are bounded by 64: AVX2's `vpmaddubsw` saturates
    /// its `i16` pair sums, and `2·255·64 = 32 640 ≤ i16::MAX`.
    const WEIGHTS: RangeInclusive<i64> = -64..=64;

    fn narrow(w: i64) -> i8 {
        w as i8
    }

    fn sums(tier: Tier, w: &LaneWeights<u8>, patches: &[u8], out: &mut [i32]) {
        match tier {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 if tier.runs(Family::Int) => {
                // SAFETY: `runs` just confirmed that this CPU executes
                // AVX-512F and AVX-512 VNNI, the features
                // `quads_avx512` is compiled with.
                unsafe { quads_avx512(w, patches, out) }
            }
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 if tier.runs(Family::Int) => {
                // SAFETY: `runs` just confirmed that this CPU executes
                // AVX2, the feature `quads_avx2` is compiled with.
                unsafe { quads_avx2(w, patches, out) }
            }
            _ => sums_portable::<u8, 4>(w, patches, out),
        }
    }
}

impl LaneAct for i16 {
    type Weight = i16;
    const STEP: usize = 2;

    /// Pair weights exclude `i16::MIN`: `vpmaddwd` saturates only a
    /// pair of `(−32768)·(−32768)` products.
    const WEIGHTS: RangeInclusive<i64> = -(i16::MAX as i64)..=i16::MAX as i64;

    fn narrow(w: i64) -> i16 {
        w as i16
    }

    fn sums(tier: Tier, w: &LaneWeights<i16>, patches: &[i16], out: &mut [i32]) {
        match tier {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 if tier.runs(Family::Int) => {
                // SAFETY: `runs` just confirmed that this CPU executes
                // AVX-512F and AVX-512 VNNI, the features
                // `pairs_avx512` is compiled with.
                unsafe { pairs_avx512(w, patches, out) }
            }
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 if tier.runs(Family::Int) => {
                // SAFETY: `runs` just confirmed that this CPU executes
                // AVX2, the feature `pairs_avx2` is compiled with.
                unsafe { pairs_avx2(w, patches, out) }
            }
            // SAFETY: SSE2, the one feature `pairs_sse2` is compiled
            // with, is part of the x86-64 baseline: every x86-64 CPU
            // executes it.
            #[cfg(target_arch = "x86_64")]
            _ => unsafe { pairs_sse2(w, patches, out) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => sums_portable::<i16, 2>(w, patches, out),
        }
    }
}

/// A `rows × cols` integer weight matrix in the channel-lane layout,
/// packed once: `[⌈rows/64⌉ blocks][steps][64 rows][A::STEP]` with
/// `steps = ⌈cols/A::STEP⌉`, so one step of one block is four 64-byte
/// vectors, one per 16-lane channel group. Rows and columns past the
/// matrix are zero.
#[derive(Debug, Clone)]
pub struct LaneWeights<A: LaneAct> {
    rows: usize,
    steps: usize,
    data: Vec<A::Weight>,
}

impl<A: LaneAct> LaneWeights<A> {
    /// Packs the `rows × c·taps` matrix `weights` (row-major, columns in
    /// `(ch, tap)` order: a reference convolution's `(ch, ky, kx)` or a
    /// flattened map's `(ch, y, x)`) with its columns reordered to
    /// `(tap, ch)`, the order of a patch of an `(h, w, c)` map (see
    /// [`Self::row_sums`]). At `taps = 1` the order is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `rows` or `c·taps` is 0,
    /// `weights.len() != rows·c·taps`, or a weight is outside the form's
    /// exact range ([`LaneAct::WEIGHTS`]).
    pub fn new(
        rows: usize,
        (c, taps): (usize, usize),
        weights: &[i64],
    ) -> Result<Self, ShapeError> {
        let cols = c * taps;
        if rows == 0 || cols == 0 || weights.len() != rows * cols {
            return Err(ShapeError::new(
                "LaneWeights::new",
                format!("{} weights for a {rows}×{c}·{taps} matrix", weights.len()),
            ));
        }
        let steps = cols.div_ceil(A::STEP);
        let (stride, block_len) = (steps * A::STEP, steps * BLOCK * A::STEP);
        let mut data = vec![A::Weight::default(); rows.div_ceil(BLOCK) * block_len];
        // Per 64-row block: each row in packed column order (source
        // column `ch·taps + tap` is packed column `tap·c + ch`), then the
        // block in destination order, `[step][lane][STEP]`, copied from
        // those row slices.
        let mut packed = vec![A::Weight::default(); rows.min(BLOCK) * stride];
        let mut exact = true;
        for (block, dst) in weights
            .chunks(BLOCK * cols)
            .zip(data.chunks_exact_mut(block_len))
        {
            let packed = &mut packed[..block.len() / cols * stride];
            for (row, out) in block
                .chunks_exact(cols)
                .zip(packed.chunks_exact_mut(stride))
            {
                for (tap, out) in out[..cols].chunks_exact_mut(c).enumerate() {
                    for (o, &w) in out.iter_mut().zip(row[tap..].iter().step_by(taps)) {
                        exact &= A::WEIGHTS.contains(&w);
                        *o = A::narrow(w);
                    }
                }
            }
            for (s, dst) in dst.chunks_exact_mut(BLOCK * A::STEP).enumerate() {
                for (lane, row) in dst
                    .chunks_exact_mut(A::STEP)
                    .zip(packed.chunks_exact(stride))
                {
                    lane.copy_from_slice(&row[s * A::STEP..][..A::STEP]);
                }
            }
        }
        if !exact {
            let i = weights
                .iter()
                .position(|w| !A::WEIGHTS.contains(w))
                .expect("an inexact weight was seen");
            return Err(ShapeError::new(
                "LaneWeights::new",
                format!(
                    "weight {} at ({}, {}) is outside the lane form's range",
                    weights[i],
                    i / cols,
                    i % cols
                ),
            ));
        }
        Ok(Self { rows, steps, data })
    }

    /// Output rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Patch stride: `cols` rounded up to whole steps. The weights past
    /// `cols` are zero, so a patch's tail does not reach the sums.
    pub fn stride(&self) -> usize {
        self.steps * A::STEP
    }

    /// Sum stride: `rows` rounded up to whole 64-row blocks.
    pub fn lanes(&self) -> usize {
        self.rows.div_ceil(BLOCK) * BLOCK
    }

    /// The channel-lane product of `patches` (`n` patches, each
    /// [`Self::stride`] long): `out[p·lanes + r] = Σ_c w[r][c]·patch_p[c]`
    /// for every row `r` of every patch `p`, rows past [`Self::rows`]
    /// zero. `out` is cleared and resized to `n·lanes`.
    ///
    /// The sums are exact when every partial sum of every row fits an
    /// `i32`, whatever order the tier adds in.
    ///
    /// # Panics
    ///
    /// Panics when `patches.len()` is not a multiple of the stride.
    pub fn sums(&self, tier: Tier, patches: &[A], out: &mut Vec<i32>) {
        let stride = self.stride();
        assert!(
            patches.len().is_multiple_of(stride),
            "patches must be whole strides"
        );
        out.clear();
        out.resize(patches.len() / stride * self.lanes(), 0);
        A::sums(tier, self, patches, out);
    }

    /// The lane sums of output row `oy` of a valid `k×k` convolution
    /// over an `(h, w, c)` map (a dense layer is `k = 1` over a one-pixel
    /// map of every input), into `out` as [`Self::sums`] writes them.
    /// Each of the row's `w − k + 1` patches is gathered into `patches`
    /// as `k` runs of `k·c` contiguous map elements: the `(ky, kx, ch)`
    /// column order [`Self::new`] packs, zero-padded to the stride.
    pub fn row_sums<S: Copy>(
        &self,
        tier: Tier,
        map: &[S],
        (c, w, k): (usize, usize, usize),
        oy: usize,
        patches: &mut Vec<A>,
        out: &mut Vec<i32>,
    ) where
        A: From<S>,
    {
        let (ow, stride, run) = (w - k + 1, self.stride(), k * c);
        patches.clear();
        patches.resize(ow * stride, A::default());
        for (ox, patch) in patches.chunks_exact_mut(stride).enumerate() {
            for (ky, dst) in patch.chunks_exact_mut(run).take(k).enumerate() {
                let src = &map[((oy + ky) * w + ox) * c..][..run];
                for (d, &x) in dst.iter_mut().zip(src) {
                    *d = A::from(x);
                }
            }
        }
        self.sums(tier, patches, out);
    }

    /// The packed weights of one 64-row block.
    fn block(&self, b: usize) -> &[A::Weight] {
        let len = self.steps * BLOCK * A::STEP;
        &self.data[b * len..(b + 1) * len]
    }
}

/// The definition every tier matches, and the portable tier off x86-64
/// (and of quads on it): per block, per patch, one 64-lane accumulator
/// updated step by step. `STEP` is `A::STEP`, as a const parameter so
/// each step is a fixed-size array the compiler can unroll.
fn sums_portable<A: LaneAct, const STEP: usize>(
    w: &LaneWeights<A>,
    patches: &[A],
    out: &mut [i32],
) {
    const { assert!(STEP == A::STEP) };
    let (stride, lanes) = (w.stride(), w.lanes());
    for b in 0..lanes / BLOCK {
        let wb = w.block(b);
        for (x, o) in patches
            .chunks_exact(stride)
            .zip(out.chunks_exact_mut(lanes))
        {
            let acc = &mut o[b * BLOCK..][..BLOCK];
            let (steps, _) = x.as_chunks::<STEP>();
            for (xs, ws) in steps.iter().zip(wb.chunks_exact(BLOCK * STEP)) {
                let xs = xs.map(|x| i32::from(x.into()));
                let (rows, _) = ws.as_chunks::<STEP>();
                for (a, wr) in acc.iter_mut().zip(rows) {
                    let wr = wr.map(|w| i32::from(w.into()));
                    let mut dot = 0;
                    for t in 0..STEP {
                        dot += xs[t] * wr[t];
                    }
                    *a += dot;
                }
            }
        }
    }
}

/// Quads on AVX-512 VNNI: one `vpdpbusd` per 16 rows and step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
fn quads_avx512(w: &LaneWeights<u8>, patches: &[u8], out: &mut [i32]) {
    sums_avx512(
        w,
        patches,
        out,
        |x| _mm512_set1_epi32(i32::from_le_bytes([x[0], x[1], x[2], x[3]])),
        |acc, x, w| _mm512_dpbusd_epi32(acc, x, w),
    );
}

/// Pairs on AVX-512 VNNI: one `vpdpwssd` per 16 rows and step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
fn pairs_avx512(w: &LaneWeights<i16>, patches: &[i16], out: &mut [i32]) {
    sums_avx512(
        w,
        patches,
        out,
        |x| _mm512_set1_epi32(pair_word(x[0], x[1])),
        |acc, x, w| _mm512_dpwssd_epi32(acc, x, w),
    );
}

/// Two `i16` as the little-endian 32-bit word they occupy in memory.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn pair_word(lo: i16, hi: i16) -> i32 {
    i32::from(lo as u16) | (i32::from(hi) << 16)
}

/// The AVX-512 loop nest: per 64-row block, patches two at a time (eight
/// independent accumulators hide the multiply–add latency), then a
/// one-patch tail. `bcast` broadcasts a step's 4 patch bytes to every
/// lane, and `madd` adds one step's products into 16 lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
#[inline]
fn sums_avx512<A: LaneAct>(
    w: &LaneWeights<A>,
    patches: &[A],
    out: &mut [i32],
    bcast: impl Fn(&[A]) -> __m512i + Copy,
    madd: impl Fn(__m512i, __m512i, __m512i) -> __m512i + Copy,
) {
    let (stride, lanes) = (w.stride(), w.lanes());
    for b in 0..lanes / BLOCK {
        let wb = w.block(b);
        let mut xs = patches.chunks_exact(2 * stride);
        let mut os = out.chunks_exact_mut(2 * lanes);
        for (x2, o2) in (&mut xs).zip(&mut os) {
            let (x0, x1) = x2.split_at(stride);
            let [a0, a1] = tile_avx512(wb, [x0, x1], bcast, madd);
            let (o0, o1) = o2.split_at_mut(lanes);
            store_avx512(&mut o0[b * BLOCK..][..BLOCK], a0);
            store_avx512(&mut o1[b * BLOCK..][..BLOCK], a1);
        }
        if !xs.remainder().is_empty() {
            let [a0] = tile_avx512(wb, [xs.remainder()], bcast, madd);
            store_avx512(&mut os.into_remainder()[b * BLOCK..][..BLOCK], a0);
        }
    }
}

/// One register tile: `P` patches × 64 rows in `4·P` `zmm`
/// accumulators over every step of one block.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
#[inline]
fn tile_avx512<A: LaneAct, const P: usize>(
    wb: &[A::Weight],
    x: [&[A]; P],
    bcast: impl Fn(&[A]) -> __m512i,
    madd: impl Fn(__m512i, __m512i, __m512i) -> __m512i,
) -> [[__m512i; 4]; P] {
    let mut acc = [[_mm512_setzero_si512(); 4]; P];
    let group = LANES * A::STEP;
    for (s, ws) in wb.chunks_exact(4 * group).enumerate() {
        let mut wv = [_mm512_setzero_si512(); 4];
        for (v, chunk) in wv.iter_mut().zip(ws.chunks_exact(group)) {
            // SAFETY: `chunk` holds 16 lanes of 4 bytes, exactly the 64
            // bytes one unaligned load reads.
            *v = unsafe { _mm512_loadu_si512(chunk.as_ptr().cast()) };
        }
        for (a, xp) in acc.iter_mut().zip(x) {
            let xv = bcast(&xp[s * A::STEP..][..A::STEP]);
            for (ag, &wg) in a.iter_mut().zip(&wv) {
                *ag = madd(*ag, xv, wg);
            }
        }
    }
    acc
}

/// Stores four 16-lane accumulators into 64 sums.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
#[inline]
fn store_avx512(dst: &mut [i32], acc: [__m512i; 4]) {
    for (chunk, v) in dst.chunks_exact_mut(LANES).zip(acc) {
        // SAFETY: `chunk` holds 16 `i32`, exactly the 64 bytes one
        // unaligned store writes.
        unsafe { _mm512_storeu_si512(chunk.as_mut_ptr().cast(), v) };
    }
}

/// Quads on AVX2: `vpmaddubsw` forms `i16` pair sums (≤ 2·255·64, see
/// [`LaneAct::WEIGHTS`]), `vpmaddwd` against ones adds them to quads.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn quads_avx2(w: &LaneWeights<u8>, patches: &[u8], out: &mut [i32]) {
    let ones = _mm256_set1_epi16(1);
    sums_avx2(
        w,
        patches,
        out,
        |x| _mm256_set1_epi32(i32::from_le_bytes([x[0], x[1], x[2], x[3]])),
        |acc, x, w| _mm256_add_epi32(acc, _mm256_madd_epi16(_mm256_maddubs_epi16(x, w), ones)),
    );
}

/// Pairs on AVX2: one `vpmaddwd` and one `vpaddd` per 8 rows and step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn pairs_avx2(w: &LaneWeights<i16>, patches: &[i16], out: &mut [i32]) {
    sums_avx2(
        w,
        patches,
        out,
        |x| _mm256_set1_epi32(pair_word(x[0], x[1])),
        |acc, x, w| _mm256_add_epi32(acc, _mm256_madd_epi16(x, w)),
    );
}

/// The AVX2 loop nest: per 64-row block and patch, eight `ymm`
/// accumulators over every step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn sums_avx2<A: LaneAct>(
    w: &LaneWeights<A>,
    patches: &[A],
    out: &mut [i32],
    bcast: impl Fn(&[A]) -> __m256i,
    madd: impl Fn(__m256i, __m256i, __m256i) -> __m256i,
) {
    let (stride, lanes) = (w.stride(), w.lanes());
    let half = LANES / 2 * A::STEP;
    for b in 0..lanes / BLOCK {
        let wb = w.block(b);
        for (x, o) in patches
            .chunks_exact(stride)
            .zip(out.chunks_exact_mut(lanes))
        {
            let mut acc = [_mm256_setzero_si256(); 8];
            for (xs, ws) in x.chunks_exact(A::STEP).zip(wb.chunks_exact(8 * half)) {
                let xv = bcast(xs);
                for (a, chunk) in acc.iter_mut().zip(ws.chunks_exact(half)) {
                    // SAFETY: `chunk` holds 8 lanes of 4 bytes, exactly
                    // the 32 bytes one unaligned load reads.
                    let wv = unsafe { _mm256_loadu_si256(chunk.as_ptr().cast()) };
                    *a = madd(*a, xv, wv);
                }
            }
            for (chunk, v) in o[b * BLOCK..][..BLOCK].chunks_exact_mut(8).zip(acc) {
                // SAFETY: `chunk` holds 8 `i32`, exactly the 32 bytes one
                // unaligned store writes.
                unsafe { _mm256_storeu_si256(chunk.as_mut_ptr().cast(), v) };
            }
        }
    }
}

/// Pairs at baseline x86-64, the portable tier there: SSE2 `pmaddwd`
/// and `paddd` per 4 rows and step, each 64-row block in two halves of
/// eight `xmm` accumulators (sixteen would leave no register for the
/// broadcast and the weights).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn pairs_sse2(w: &LaneWeights<i16>, patches: &[i16], out: &mut [i32]) {
    const HALF: usize = BLOCK / 2;
    let (stride, lanes) = (w.stride(), w.lanes());
    for b in 0..lanes / BLOCK {
        let wb = w.block(b);
        for (x, o) in patches
            .chunks_exact(stride)
            .zip(out.chunks_exact_mut(lanes))
        {
            for (h, dst) in o[b * BLOCK..][..BLOCK].chunks_exact_mut(HALF).enumerate() {
                let mut acc = [_mm_setzero_si128(); 8];
                for (xs, ws) in x.chunks_exact(2).zip(wb.chunks_exact(2 * BLOCK)) {
                    let xv = _mm_set1_epi32(pair_word(xs[0], xs[1]));
                    for (a, chunk) in acc
                        .iter_mut()
                        .zip(ws[2 * HALF * h..][..2 * HALF].chunks_exact(8))
                    {
                        // SAFETY: `chunk` holds 4 lanes of 2 `i16`,
                        // exactly the 16 bytes one unaligned load reads.
                        let wv = unsafe { _mm_loadu_si128(chunk.as_ptr().cast()) };
                        *a = _mm_add_epi32(*a, _mm_madd_epi16(xv, wv));
                    }
                }
                for (chunk, v) in dst.chunks_exact_mut(4).zip(acc) {
                    // SAFETY: `chunk` holds 4 `i32`, exactly the 16 bytes
                    // one unaligned store writes.
                    unsafe { _mm_storeu_si128(chunk.as_mut_ptr().cast(), v) };
                }
            }
        }
    }
}

/// Threshold ladders in the lane layout: row `r`'s level of a sum `s` is
/// `#{j : (s > key_rj) ≠ flip_rj}`, the count of its fired bounds.
///
/// Packed as `[groups][bounds][16 lanes]`, `groups` covering whole
/// 64-row blocks. A flipped bound fires iff `s ≤ key`, i.e.
/// `1 − [s > key]`, so each lane starts at its number of flipped bounds
/// (`base`) and adds `sign = ±1` per bound with `s > key`: one compare
/// and one masked add. Lanes past `rows` never fire: their keys are
/// `i32::MAX` and they flip nothing.
#[derive(Debug, Clone)]
pub struct LaneLadder {
    rows: usize,
    bounds: usize,
    keys: Vec<i32>,
    signs: Vec<i32>,
    base: Vec<i32>,
}

impl LaneLadder {
    /// Packs `rows` ladders of `bounds` `(key, flip)` pairs each,
    /// row-major.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `rows` is 0,
    /// `ladders.len() != rows·bounds`, or `bounds` is 0 or above 255 (a
    /// level must fit a `u8`).
    pub fn new(rows: usize, bounds: usize, ladders: &[(i32, bool)]) -> Result<Self, ShapeError> {
        if rows == 0
            || !(1..=255).contains(&bounds)
            || rows.checked_mul(bounds) != Some(ladders.len())
        {
            return Err(ShapeError::new(
                "LaneLadder::new",
                format!(
                    "{} bounds for {rows} ladders of {bounds} (1..=255)",
                    ladders.len()
                ),
            ));
        }
        let groups = rows.div_ceil(BLOCK) * (BLOCK / LANES);
        let mut keys = vec![i32::MAX; groups * bounds * LANES];
        let mut signs = vec![0; groups * bounds * LANES];
        let mut base = vec![0; groups * LANES];
        for (r, ladder) in ladders.chunks_exact(bounds).enumerate() {
            let (g, lane) = (r / LANES, r % LANES);
            for (j, &(key, flip)) in ladder.iter().enumerate() {
                let at = (g * bounds + j) * LANES + lane;
                keys[at] = key;
                signs[at] = if flip { -1 } else { 1 };
                base[g * LANES + lane] += i32::from(flip);
            }
        }
        Ok(Self {
            rows,
            bounds,
            keys,
            signs,
            base,
        })
    }

    /// Appends the `rows` levels of every sum row to `out`: `sums` holds
    /// rows `lanes` apart (a [`LaneWeights::lanes`] stride).
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is not a multiple of 64 covering every row,
    /// or `sums.len()` is not a multiple of `lanes`.
    pub fn levels(&self, tier: Tier, sums: &[i32], lanes: usize, out: &mut Vec<u8>) {
        assert!(
            lanes >= self.rows && lanes.is_multiple_of(BLOCK) && sums.len().is_multiple_of(lanes),
            "sums must be whole rows of 64-lane blocks"
        );
        let start = out.len();
        out.resize(start + sums.len() / lanes * self.rows, 0);
        let out = &mut out[start..];
        match tier {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 if tier.runs(Family::Int) => {
                // SAFETY: `runs` just confirmed that this CPU executes
                // AVX-512F and AVX-512 VNNI, the features
                // `levels_avx512` is compiled with.
                unsafe { levels_avx512(self, sums, lanes, out) }
            }
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 if tier.runs(Family::Int) => {
                // SAFETY: `runs` just confirmed that this CPU executes
                // AVX2, the feature `levels_avx2` is compiled with.
                unsafe { levels_avx2(self, sums, lanes, out) }
            }
            _ => levels_portable(self, sums, lanes, out),
        }
    }

    /// Appends the levels of a one-bound ladder (each 0 or 1) to `out` as
    /// channel-packed words, `⌈rows/64⌉` per sum row: row `r`'s level is
    /// bit `r % 64` of word `r / 64`, and bits past `rows` are zero.
    /// `sums` holds rows `lanes` apart, as for [`Self::levels`].
    ///
    /// # Panics
    ///
    /// Panics when the ladder has more than one bound, or on the
    /// [`Self::levels`] shape conditions.
    pub fn words(&self, tier: Tier, sums: &[i32], lanes: usize, out: &mut Vec<u64>) {
        assert_eq!(self.bounds, 1, "packed words need one bound per row");
        assert!(
            lanes >= self.rows && lanes.is_multiple_of(BLOCK) && sums.len().is_multiple_of(lanes),
            "sums must be whole rows of 64-lane blocks"
        );
        let start = out.len();
        out.resize(start + sums.len() / lanes * self.rows.div_ceil(BLOCK), 0);
        let out = &mut out[start..];
        match tier {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 if tier.runs(Family::Int) => {
                // SAFETY: `runs` just confirmed that this CPU executes
                // AVX-512F and AVX-512 VNNI, the features `words_avx512`
                // is compiled with.
                unsafe { words_avx512(self, sums, lanes, out) }
            }
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 if tier.runs(Family::Int) => {
                // SAFETY: `runs` just confirmed that this CPU executes
                // AVX2, the feature `words_avx2` is compiled with.
                unsafe { words_avx2(self, sums, lanes, out) }
            }
            _ => words_portable(self, sums, lanes, out),
        }
    }

    /// Group `g`'s keys and signs, `bounds` runs of 16 lanes each.
    fn group(&self, g: usize) -> (&[i32], &[i32]) {
        let len = self.bounds * LANES;
        (
            &self.keys[g * len..(g + 1) * len],
            &self.signs[g * len..(g + 1) * len],
        )
    }
}

/// The definition every tier matches, 16 rows at a time.
fn levels_portable(l: &LaneLadder, sums: &[i32], lanes: usize, out: &mut [u8]) {
    for (s, o) in sums.chunks_exact(lanes).zip(out.chunks_exact_mut(l.rows)) {
        for (g, dst) in o.chunks_mut(LANES).enumerate() {
            let (keys, signs) = l.group(g);
            let at = g * LANES;
            let sv = &s[at..at + LANES];
            let mut count: [i32; LANES] = l.base[at..at + LANES]
                .try_into()
                .expect("16 lanes per group");
            let (keys, _) = keys.as_chunks::<LANES>();
            let (signs, _) = signs.as_chunks::<LANES>();
            for (k, sg) in keys.iter().zip(signs) {
                for lane in 0..LANES {
                    // Branch-free, so the 16 lanes vectorize.
                    count[lane] += sg[lane] & -i32::from(sv[lane] > k[lane]);
                }
            }
            for (d, &c) in dst.iter_mut().zip(&count) {
                *d = c as u8;
            }
        }
    }
}

/// The ladder on AVX-512: one `vpcmpgtd` into a mask and one masked
/// `vpaddd` per bound and 16 rows; `vpmovdb` narrows the levels.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
fn levels_avx512(l: &LaneLadder, sums: &[i32], lanes: usize, out: &mut [u8]) {
    for (s, o) in sums.chunks_exact(lanes).zip(out.chunks_exact_mut(l.rows)) {
        for (g, dst) in o.chunks_mut(LANES).enumerate() {
            let (keys, signs) = l.group(g);
            let at = g * LANES;
            // SAFETY: `lanes` covers every group of 16 rows (checked by
            // `levels`), so `s[at..at + 16]` and `base[at..at + 16]`
            // are in bounds, 64 bytes each.
            let (sv, mut count) = unsafe {
                (
                    _mm512_loadu_si512(s[at..at + LANES].as_ptr().cast()),
                    _mm512_loadu_si512(l.base[at..at + LANES].as_ptr().cast()),
                )
            };
            for (k, sg) in keys.chunks_exact(LANES).zip(signs.chunks_exact(LANES)) {
                // SAFETY: `k` and `sg` hold 16 `i32` each, 64 bytes.
                let (kv, sgv) = unsafe {
                    (
                        _mm512_loadu_si512(k.as_ptr().cast()),
                        _mm512_loadu_si512(sg.as_ptr().cast()),
                    )
                };
                count = _mm512_mask_add_epi32(count, _mm512_cmpgt_epi32_mask(sv, kv), count, sgv);
            }
            store_levels(dst, _mm512_cvtepi32_epi8(count));
        }
    }
}

/// The ladder on AVX2: per bound and 8 rows one `vpcmpgtd`, `vpand` and
/// `vpaddd`; two saturating packs narrow the levels (they are 0..=255).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn levels_avx2(l: &LaneLadder, sums: &[i32], lanes: usize, out: &mut [u8]) {
    let load = |v: &[i32]| {
        // SAFETY: every caller passes a slice of exactly 8 `i32`, the 32
        // bytes one unaligned load reads.
        unsafe { _mm256_loadu_si256(v[..8].as_ptr().cast()) }
    };
    for (s, o) in sums.chunks_exact(lanes).zip(out.chunks_exact_mut(l.rows)) {
        for (g, dst) in o.chunks_mut(LANES).enumerate() {
            let (keys, signs) = l.group(g);
            let at = g * LANES;
            let sv = [load(&s[at..at + 8]), load(&s[at + 8..at + 16])];
            let mut count = [load(&l.base[at..at + 8]), load(&l.base[at + 8..at + 16])];
            for (k, sg) in keys.chunks_exact(LANES).zip(signs.chunks_exact(LANES)) {
                for h in 0..2 {
                    let fired = _mm256_cmpgt_epi32(sv[h], load(&k[8 * h..8 * h + 8]));
                    let step = _mm256_and_si256(fired, load(&sg[8 * h..8 * h + 8]));
                    count[h] = _mm256_add_epi32(count[h], step);
                }
            }
            // `packs` interleaves 128-bit halves; the permute restores
            // row order before the final pack to bytes.
            let words =
                _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_packs_epi32(count[0], count[1]));
            let bytes = _mm_packus_epi16(
                _mm256_castsi256_si128(words),
                _mm256_extracti128_si256::<1>(words),
            );
            store_levels(dst, bytes);
        }
    }
}

/// Writes the first `dst.len() ≤ 16` bytes of `bytes`: one store for a
/// whole group, a copy through a stack buffer for the last partial one.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn store_levels(dst: &mut [u8], bytes: __m128i) {
    if let Ok(whole) = <&mut [u8; LANES]>::try_from(&mut *dst) {
        // SAFETY: `whole` is 16 bytes, exactly what one unaligned store
        // writes.
        unsafe { _mm_storeu_si128(whole.as_mut_ptr().cast(), bytes) };
        return;
    }
    let mut tmp = [0u8; LANES];
    // SAFETY: `tmp` is 16 bytes, exactly what one unaligned store writes.
    unsafe { _mm_storeu_si128(tmp.as_mut_ptr().cast(), bytes) };
    dst.copy_from_slice(&tmp[..dst.len()]);
}

// With one bound, a ladder's `keys` and `base` are indexed by row: `base`
// is 1 for a flipped row. Each output word covers 64 rows, and both are
// padded to whole words.

/// The packed-word definition every tier matches.
fn words_portable(l: &LaneLadder, sums: &[i32], lanes: usize, out: &mut [u64]) {
    let per_row = l.rows.div_ceil(BLOCK);
    for (s, o) in sums.chunks_exact(lanes).zip(out.chunks_exact_mut(per_row)) {
        for (i, word) in o.iter_mut().enumerate() {
            let at = i * BLOCK;
            let lanes = s[at..at + BLOCK]
                .iter()
                .zip(&l.keys[at..at + BLOCK])
                .zip(&l.base[at..at + BLOCK]);
            *word = lanes
                .enumerate()
                .fold(0, |acc, (bit, ((&s, &key), &flip))| {
                    acc | u64::from((s > key) != (flip != 0)) << bit
                });
        }
    }
}

/// The packed words on AVX-512: per 16 rows one `vpcmpgtd` into a mask,
/// XORed with the flipped rows' mask; four masks make a word.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
fn words_avx512(l: &LaneLadder, sums: &[i32], lanes: usize, out: &mut [u64]) {
    let load = |v: &[i32]| {
        // SAFETY: `v[..LANES]` is 16 `i32` (the index panics on a shorter
        // slice), exactly the 64 bytes one unaligned load reads.
        unsafe { _mm512_loadu_si512(v[..LANES].as_ptr().cast()) }
    };
    let per_row = l.rows.div_ceil(BLOCK);
    for (s, o) in sums.chunks_exact(lanes).zip(out.chunks_exact_mut(per_row)) {
        for (i, word) in o.iter_mut().enumerate() {
            let mut bits = 0;
            for g in 0..BLOCK / LANES {
                let at = i * BLOCK + g * LANES;
                let flips = load(&l.base[at..]);
                let fired = _mm512_cmpgt_epi32_mask(load(&s[at..]), load(&l.keys[at..]))
                    ^ _mm512_test_epi32_mask(flips, flips);
                bits |= u64::from(fired) << (g * LANES);
            }
            *word = bits;
        }
    }
}

/// The packed words on AVX2: per 8 rows one `vpcmpgtd`, XORed with the
/// flipped rows, and `vmovmskps` gathers the 8 sign bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn words_avx2(l: &LaneLadder, sums: &[i32], lanes: usize, out: &mut [u64]) {
    let load = |v: &[i32]| {
        // SAFETY: `v[..8]` is 8 `i32` (the index panics on a shorter
        // slice), exactly the 32 bytes one unaligned load reads.
        unsafe { _mm256_loadu_si256(v[..8].as_ptr().cast()) }
    };
    let zero = _mm256_setzero_si256();
    let per_row = l.rows.div_ceil(BLOCK);
    for (s, o) in sums.chunks_exact(lanes).zip(out.chunks_exact_mut(per_row)) {
        for (i, word) in o.iter_mut().enumerate() {
            let mut bits = 0;
            for g in 0..BLOCK / 8 {
                let at = i * BLOCK + g * 8;
                let fired = _mm256_xor_si256(
                    _mm256_cmpgt_epi32(load(&s[at..]), load(&l.keys[at..])),
                    _mm256_cmpgt_epi32(load(&l.base[at..]), zero),
                );
                let mask = _mm256_movemask_ps(_mm256_castsi256_ps(fired)) as u32;
                bits |= u64::from(mask) << (g * 8);
            }
            *word = bits;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random values in `lo..=hi`, with both ends
    /// forced at a few positions.
    fn draw(len: usize, lo: i32, hi: i32, salt: u64) -> Vec<i32> {
        (0..len as u64)
            .map(|i| match i % 11 {
                0 => lo,
                1 => hi,
                _ => {
                    let h = (i ^ salt)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .rotate_left(23);
                    lo + (h % (hi - lo + 1) as u64) as i32
                }
            })
            .collect()
    }

    /// `Σ_c w[r][c]·x_p[c]` written out, rows `lanes` apart.
    fn reference(rows: usize, cols: usize, w: &[i64], xs: &[i32], lanes: usize) -> Vec<i32> {
        let n = xs.len() / cols;
        let mut out = vec![0; n * lanes];
        for p in 0..n {
            for r in 0..rows {
                out[p * lanes + r] = (0..cols)
                    .map(|c| w[r * cols + c] as i32 * xs[p * cols + c])
                    .sum();
            }
        }
        out
    }

    /// Runs `A`'s product on every supported tier, and its portable
    /// definition, against the reference. Weights are drawn in
    /// `(ch, tap)` column order and each patch is laid out in the
    /// `(tap, ch)` order [`LaneWeights::new`] packs.
    fn check_form<A: LaneAct + TryFrom<i32>>(
        x_range: (i32, i32),
        w_max: i32,
        portable: fn(&LaneWeights<A>, &[A], &mut [i32]),
    ) where
        <A as TryFrom<i32>>::Error: std::fmt::Debug,
    {
        for (case, &(rows, c, taps, n)) in [
            (1, 1, 1, 1),
            (10, 27, 1, 3),
            (16, 64, 1, 2),
            (17, 7, 9, 5),
            (64, 64, 9, 4),
            (65, 130, 1, 1),
            (130, 3, 3, 7),
            (8, 5, 1, 0),
        ]
        .iter()
        .enumerate()
        {
            let cols = c * taps;
            let w: Vec<i64> = draw(rows * cols, -w_max, w_max, 3 + case as u64)
                .into_iter()
                .map(i64::from)
                .collect();
            let xs = draw(n * cols, x_range.0, x_range.1, 40 + case as u64);
            let lw = LaneWeights::<A>::new(rows, (c, taps), &w).unwrap();
            let stride = lw.stride();
            let mut patches = vec![A::default(); n * stride];
            for p in 0..n {
                for ch in 0..c {
                    for tap in 0..taps {
                        patches[p * stride + tap * c + ch] =
                            A::try_from(xs[p * cols + ch * taps + tap]).unwrap();
                    }
                }
            }
            let want = reference(rows, cols, &w, &xs, lw.lanes());
            let mut definition = vec![0; want.len()];
            portable(&lw, &patches, &mut definition);
            assert_eq!(definition, want, "definition rows {rows} cols {cols} n {n}");
            for tier in Tier::supported(Family::Int) {
                let mut got = vec![7; 3];
                lw.sums(tier, &patches, &mut got);
                assert_eq!(got, want, "{tier:?} rows {rows} cols {cols} n {n}");
            }
        }
    }

    #[test]
    fn every_supported_tier_computes_quads_and_pairs_exactly() {
        check_form::<u8>((0, 255), 64, sums_portable::<u8, 4>);
        check_form::<i16>((-255, 255), 255, sums_portable::<i16, 2>);
        check_form::<i16>((-128, 128), 32767, sums_portable::<i16, 2>);
    }

    /// `row_sums` of every output row equals the convolution written out
    /// over an `(h, w, c)` map, weights in `(ch, ky, kx)` order.
    #[test]
    fn row_sums_gather_convolution_patches() {
        for &(rows, c, h, wd, k) in &[(10, 3, 5, 6, 3), (65, 7, 4, 4, 2), (3, 9, 1, 1, 1)] {
            let cols = c * k * k;
            let w: Vec<i64> = draw(rows * cols, -1, 1, 60)
                .into_iter()
                .map(i64::from)
                .collect();
            let map: Vec<i16> = draw(h * wd * c, -128, 128, 61)
                .into_iter()
                .map(|x| x as i16)
                .collect();
            let lw = LaneWeights::<i16>::new(rows, (c, k * k), &w).unwrap();
            let (mut patches, mut got) = (Vec::new(), Vec::new());
            for oy in 0..h - k + 1 {
                lw.row_sums(
                    Tier::detected(Family::Int),
                    &map,
                    (c, wd, k),
                    oy,
                    &mut patches,
                    &mut got,
                );
                for ox in 0..wd - k + 1 {
                    for r in 0..rows {
                        let mut want = 0;
                        for ch in 0..c {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let x = map[((oy + ky) * wd + ox + kx) * c + ch];
                                    want +=
                                        w[r * cols + (ch * k + ky) * k + kx] as i32 * i32::from(x);
                                }
                            }
                        }
                        assert_eq!(
                            got[ox * lw.lanes() + r],
                            want,
                            "rows {rows} oy {oy} ox {ox} r {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn weights_outside_the_exact_range_are_rejected() {
        assert!(LaneWeights::<u8>::new(1, (2, 1), &[64, -64]).is_ok());
        assert!(LaneWeights::<u8>::new(1, (1, 1), &[65]).is_err());
        assert!(LaneWeights::<u8>::new(1, (1, 1), &[-65]).is_err());
        assert!(LaneWeights::<i16>::new(1, (1, 1), &[i64::from(i16::MAX)]).is_ok());
        assert!(LaneWeights::<i16>::new(1, (1, 1), &[i64::from(i16::MIN)]).is_err());
        assert!(LaneWeights::<i16>::new(1, (1, 1), &[1 << 20]).is_err());
        assert!(LaneWeights::<i16>::new(0, (2, 1), &[]).is_err());
        assert!(LaneWeights::<i16>::new(2, (2, 1), &[0; 3]).is_err());
        assert!(LaneLadder::new(0, 1, &[]).is_err());
        assert!(LaneLadder::new(1, 0, &[]).is_err());
        assert!(LaneLadder::new(1, 256, &[(0, false); 256]).is_err());
    }

    #[test]
    fn every_supported_tier_counts_ladders_exactly() {
        let edges = [
            i32::MIN,
            i32::MIN + 1,
            -7,
            -1,
            0,
            1,
            6,
            i32::MAX - 1,
            i32::MAX,
        ];
        for &(rows, bounds, n) in &[
            (1, 1, 3),
            (10, 3, 4),
            (16, 15, 2),
            (17, 7, 3),
            (64, 255, 2),
            (130, 15, 3),
        ] {
            let salt = (rows * 1000 + bounds) as u64;
            let keys = draw(rows * bounds, -9, 9, salt);
            let flips = draw(rows * bounds, 0, 1, salt + 1);
            let ladders: Vec<(i32, bool)> = keys
                .iter()
                .zip(&flips)
                .enumerate()
                .map(|(i, (&k, &f))| {
                    (
                        if i % 5 == 0 {
                            edges[i % edges.len()]
                        } else {
                            k
                        },
                        f == 1,
                    )
                })
                .collect();
            let ladder = LaneLadder::new(rows, bounds, &ladders).unwrap();
            let lanes = rows.div_ceil(BLOCK) * BLOCK;
            let mut sums = draw(n * lanes, -10, 10, salt + 2);
            for (i, s) in sums.iter_mut().enumerate().step_by(3) {
                *s = edges[i % edges.len()];
            }
            let want: Vec<u8> = (0..n)
                .flat_map(|p| (0..rows).map(move |r| (p, r)))
                .map(|(p, r)| {
                    let s = sums[p * lanes + r];
                    ladders[r * bounds..(r + 1) * bounds]
                        .iter()
                        .filter(|&&(k, f)| (s > k) != f)
                        .count() as u8
                })
                .collect();
            for tier in Tier::supported(Family::Int) {
                let mut got = vec![9u8];
                ladder.levels(tier, &sums, lanes, &mut got);
                assert_eq!(got[0], 9, "levels append");
                assert_eq!(&got[1..], &want[..], "{tier:?} rows {rows} bounds {bounds}");
            }
        }
    }

    /// One-bound ladders read out as packed words on every tier equal the
    /// portable readout and the written-out bits: keys at the `i32`
    /// edges, mixed flips, sums on both sides of each key, and row counts
    /// that fill part of a word, one word, or two and three; padding bits
    /// stay zero and words append.
    #[test]
    fn every_supported_tier_packs_one_bound_ladders_into_words() {
        let edges = [i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX - 1, i32::MAX];
        for &(rows, n) in &[(1, 3), (63, 2), (64, 4), (65, 3), (130, 5)] {
            let salt = rows as u64 * 7;
            let keys = draw(rows, -6, 6, salt);
            let flips = draw(rows, 0, 1, salt + 1);
            let ladder: Vec<(i32, bool)> = keys
                .iter()
                .zip(&flips)
                .enumerate()
                .map(|(r, (&k, &f))| {
                    (
                        if r % 4 == 0 {
                            edges[r % edges.len()]
                        } else {
                            k
                        },
                        f == 1,
                    )
                })
                .collect();
            let lanes = rows.div_ceil(BLOCK) * BLOCK;
            let mut sums = draw(n * lanes, -7, 7, salt + 2);
            for (i, s) in sums.iter_mut().enumerate().step_by(5) {
                *s = edges[i % edges.len()];
            }
            let words = rows.div_ceil(BLOCK);
            let mut want = vec![0u64; n * words];
            for p in 0..n {
                for (r, &(key, flip)) in ladder.iter().enumerate() {
                    let fired = (sums[p * lanes + r] > key) != flip;
                    want[p * words + r / BLOCK] |= u64::from(fired) << (r % BLOCK);
                }
            }
            let l = LaneLadder::new(rows, 1, &ladder).unwrap();
            let mut definition = vec![0; want.len()];
            words_portable(&l, &sums, lanes, &mut definition);
            assert_eq!(definition, want, "definition rows {rows}");
            for tier in Tier::supported(Family::Int) {
                let mut got = vec![u64::MAX];
                l.words(tier, &sums, lanes, &mut got);
                assert_eq!(got[0], u64::MAX, "words append");
                assert_eq!(&got[1..], &want[..], "{tier:?} rows {rows}");
            }
        }
    }

    #[test]
    fn detected_tier_is_supported() {
        for family in [Family::Gemm, Family::Popcount, Family::Int] {
            let tiers = Tier::supported(family);
            assert_eq!(tiers[0], Tier::Portable);
            assert_eq!(*tiers.last().unwrap(), Tier::detected(family));
        }
    }
}
