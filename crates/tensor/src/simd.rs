//! Run-time SIMD tiers: the workspace's one home for `unsafe`,
//! `#[target_feature]` and CPU feature detection.
//!
//! Three kernel families run a wider build on x86-64 CPUs that support
//! it, each picked per call by [`Tier::detected`]:
//!
//! | [`Family`] | kernel | `Tier::Amx` | [`Tier::Avx512`] | [`Tier::Avx2`] |
//! |---|---|---|---|---|
//! | `Gemm` | the `f32` kernels: the packed GEMM behind `linalg::gemm`, the channel-lane convolution [`FloatConv::run`] and the max pool [`max_pool`] | — | AVX-512F | AVX2 |
//! | `Popcount` | the binary convolution [`PopcountConv::run`]: XOR–popcount–threshold over channel-packed maps | — | AVX-512F + VPOPCNTDQ | AVX2 (a `vpshufb` nibble-table popcount) |
//! | `Int` | the channel-lane integer product [`LaneWeights::sums`], ladder [`LaneLadder::levels`], packed-word readout [`LaneLadder::words`] and the `u8` convolution [`LaneWeights::conv_levels`] | AMX-TILE + AMX-INT8 and Linux's tile-data permission, plus AVX-512F + VNNI: the `u8` convolution on tiles where [`LaneWeights::conv_levels`] says they pay, every other kernel its AVX-512 build | AVX-512F + VNNI | AVX2 |
//!
//! The `Int` family serves two engines: `mp-int`'s `QuantBnn` dense path
//! (level ladders) and `mp-bnn`'s `HardwareBnn` first engine (`i16`
//! pixel pairs against ±1 weights, one-bound ladders read out as
//! channel-packed words). The `Popcount` family serves `HardwareBnn`'s
//! `BinConv` engines. The `Gemm` family serves the float host network:
//! `Conv2d` inference runs [`FloatConv`] where its geometry pays and
//! im2col + `linalg::gemm` elsewhere, and `MaxPool2d` inference runs
//! [`max_pool`].
//!
//! Every other CPU, and every tier whose features the CPU lacks, runs
//! [`Tier::Portable`]. On x86-64 the portable `i16` pair product is an
//! SSE2 `pmaddwd` body (SSE2 is part of the baseline, so no check is
//! needed); elsewhere it is plain Rust. [`FloatConv`] has no portable
//! build: there a convolution stays im2col + the portable GEMM, its
//! definition. Each tier computes the portable definition's result bit
//! for bit: the GEMM and the float convolution keep one summation order,
//! the max pool one comparison order, and the integer and popcount
//! kernels add integers, whose sum does not depend on order. No flag,
//! environment variable, feature or configuration field selects a tier;
//! tests compare every tier of [`Tier::supported`] against the portable
//! one.
//!
//! Calling a `#[target_feature]` function is `unsafe` because the CPU
//! must support the features. Every such call below sits behind
//! [`Tier::runs`], which checks them with `is_x86_feature_detected!`.
//! The integer, popcount, float convolution and max pool kernels also
//! load and store through raw pointers into slices whose lengths (or,
//! for the convolution's patch reads, whose offset tables) are checked
//! first.
//!
//! `Tier::Amx` exists on x86-64 Linux only. Rust's AMX intrinsics and
//! its `amx-int8` feature detection are unstable, so the tile kernel is
//! `asm!` (`ldtilecfg`, `tilezero`, `tileloadd`, `tdpbusd`, `tilestored`,
//! and `tilerelease` before every return), and [`Tier::runs`] checks the
//! tier by hand, once per process: AVX-512F + VNNI, CPUID leaf 7 EDX
//! bits 24–25 (AMX-TILE, AMX-INT8), XCR0 bits 17–18 (the OS saves tile
//! state), and `arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)`
//! returning 0, through a raw `syscall`; Linux faults the first tile
//! instruction of a process without that permission. Each `tileloadd`
//! reads rows of 64 bytes at a stride from the start of a checked slice
//! that holds all of them, and each `tilestored` writes inside a checked
//! 4 KiB slice.

use std::ops::RangeInclusive;

use crate::conv::ConvGeometry;
use crate::ShapeError;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// A kernel family: each has its own CPU features per [`Tier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The `f32` kernels: the packed GEMM of `linalg::gemm`, the
    /// channel-lane convolution ([`FloatConv`]) and the max pool
    /// ([`max_pool`]).
    Gemm,
    /// The binary convolution kernel ([`PopcountConv`]).
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
    /// AMX-INT8 tile build of the `Int` family's `u8` convolution
    /// ([`LaneWeights::conv_levels`]); its other `Int` kernels run their
    /// AVX-512 build. Linux only: the process must ask the kernel for
    /// tile state. No other family has a tile build.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    Amx,
}

// Off x86-64 only the portable tier exists, and `family` goes unread.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
impl Tier {
    /// The widest tier of `family` the running CPU supports.
    pub fn detected(family: Family) -> Self {
        #[cfg(target_arch = "x86_64")]
        for tier in [
            #[cfg(target_os = "linux")]
            Self::Amx,
            Self::Avx512,
            Self::Avx2,
        ] {
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
            [
                Self::Avx2,
                Self::Avx512,
                #[cfg(target_os = "linux")]
                Self::Amx,
            ]
            .into_iter()
            .filter(|t| t.runs(family)),
        );
        tiers
    }

    /// Whether the running CPU executes every feature `family`'s build
    /// on this tier is compiled with. Each feature list here matches the
    /// `#[target_feature]` list of that build; the tile tier also needs
    /// the AMX features its `asm!` runs and the OS's permission to use
    /// them, and only the `Int` family has it.
    pub fn runs(self, family: Family) -> bool {
        match self {
            Self::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => match family {
                Family::Gemm => is_x86_feature_detected!("avx512f"),
                Family::Popcount => {
                    is_x86_feature_detected!("avx512f")
                        && is_x86_feature_detected!("avx512vpopcntdq")
                }
                Family::Int => {
                    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vnni")
                }
            },
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            Self::Amx => family == Family::Int && amx_int8(),
        }
    }

    /// The tier whose vector build an `Int` kernel without a tile build
    /// runs: [`Tier::Avx512`] under [`Tier::Amx`] (whose features include
    /// AVX-512F + VNNI), `self` elsewhere.
    fn vector(self) -> Self {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        if self == Self::Amx {
            return Self::Avx512;
        }
        self
    }
}

/// Whether this CPU and OS run the AMX tile build: AVX-512F + VNNI (the
/// build of the other `Int` kernels), AMX-TILE and AMX-INT8 (CPUID leaf 7,
/// EDX bits 24–25), tile state enabled in XCR0 (bits 17–18), and Linux's
/// permission to use tile data, `arch_prctl(ARCH_REQ_XCOMP_PERM,
/// XFEATURE_XTILEDATA)`. The permission is process-wide; it is requested
/// once, on the first call, and the answer is kept.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn amx_int8() -> bool {
    static AMX: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AMX.get_or_init(|| {
        const AMX_TILE_INT8: u32 = 0b11 << 24;
        const XTILECFG_XTILEDATA: u64 = 0b11 << 17;
        const SYS_ARCH_PRCTL: usize = 158;
        const ARCH_REQ_XCOMP_PERM: usize = 0x1023;
        const XFEATURE_XTILEDATA: usize = 18;
        // AVX-512F support implies CPUID leaf 7 and OSXSAVE, which
        // `xgetbv` needs.
        if !(is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vnni"))
            || __cpuid_count(7, 0).edx & AMX_TILE_INT8 != AMX_TILE_INT8
        {
            return false;
        }
        let (lo, hi): (u32, u32);
        // SAFETY: `xgetbv` with ECX = 0 reads XCR0 into EDX:EAX and
        // touches nothing else; OSXSAVE is set (see above), so it executes.
        unsafe {
            std::arch::asm!(
                "xgetbv",
                in("ecx") 0,
                out("eax") lo,
                out("edx") hi,
                options(nomem, nostack, preserves_flags),
            );
        }
        if (u64::from(hi) << 32 | u64::from(lo)) & XTILECFG_XTILEDATA != XTILECFG_XTILEDATA {
            return false;
        }
        let ret: isize;
        // SAFETY: the x86-64 Linux `syscall` convention: number in RAX,
        // arguments in RDI and RSI, the result in RAX, RCX and R11
        // clobbered. `arch_prctl(ARCH_REQ_XCOMP_PERM, 18)` reads no
        // memory; it only grants this process tile state.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_ARCH_PRCTL as isize => ret,
                in("rdi") ARCH_REQ_XCOMP_PERM,
                in("rsi") XFEATURE_XTILEDATA,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret == 0
    })
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

// ---- Gemm: the channel-lane float convolution ----

/// Output pixels of one [`FloatConv`] register tile on AVX-512: two
/// `zmm` per pixel, so 20 accumulators beside 8 weight registers (8, 9
/// or 12 pixels ran slower on the paper's models).
#[cfg(target_arch = "x86_64")]
const CONV_PIXELS_AVX512: usize = 10;

/// Output pixels of one [`FloatConv`] register tile on AVX2: one `ymm`
/// per pixel beside 4 weight registers (8 or 10 pixels ran slower).
#[cfg(target_arch = "x86_64")]
const CONV_PIXELS_AVX2: usize = 6;

/// 4 KiB of `f32`: a plane pitch [`FloatConv`] never uses.
const PAGE_FLOATS: usize = 1024;

/// A float convolution packed once, for one image size on one tier, in
/// the channel-lane layout: FINN's processing elements as SIMD lanes,
/// one output channel per lane with its weights stationary, and each
/// patch value broadcast to every lane from where it lies in the image,
/// so no patch matrix is built.
///
/// Weights are `[⌈rows/L⌉ blocks][fan_in][L lanes]`, `fan_in = c·k·k` in
/// the `(ch, ky, kx)` column order of a `[rows, fan_in]` weight matrix.
/// `L` is 32 on AVX-512 (two `zmm`) and 8 on AVX2 (one `ymm`); lanes
/// past `rows` hold zero weights and bias and are never stored.
/// [`Self::run`] copies an image once into a zero-padded buffer of `c`
/// planes of `(h + 2p)·(w + 2p)` floats, the plane pitch rounded up
/// where it would be a multiple of 4 KiB (planes at such a pitch share L1
/// cache sets, so a window over many channels would evict itself). Tap
/// `(ch, ky, kx)` then lies at a fixed offset from an output pixel's
/// window corner: one table of `fan_in` tap offsets and one of window
/// corners address every patch value in place.
///
/// A register tile is `P` output pixels (10 on AVX-512, 6 on AVX2; a
/// tile may span output rows) × `L` channels, stored transposed into the
/// NCHW output. Each element is summed in `gemm_kernel`'s order, so it
/// equals im2col + `linalg::gemm` + bias bit for bit: `+0.0`, then
/// `acc + (((x0·w0 + x1·w1) + x2·w2) + x3·w3)` for each group of four
/// taps in order, then `acc + x·w` for each of the `fan_in % 4` tail
/// taps, then `acc + bias`, with plain multiplies and adds (never a fused
/// multiply–add).
// Off x86-64 no tier builds a `FloatConv`, and the packed fields go unread.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[derive(Debug, Clone)]
pub struct FloatConv {
    tier: Tier,
    rows: usize,
    input: (usize, usize, usize),
    padding: usize,
    padded_w: usize,
    pitch: usize,
    weights: Vec<f32>,
    bias: Vec<f32>,
    taps: Vec<u32>,
    corners: Vec<u32>,
}

impl FloatConv {
    /// The lanes of `tier`'s register tile, or `None` where `tier` has
    /// no channel-lane build (the portable tier) or this CPU lacks its
    /// features.
    pub fn lanes(tier: Tier) -> Option<usize> {
        match tier {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 if tier.runs(Family::Gemm) => Some(32),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 if tier.runs(Family::Gemm) => Some(8),
            _ => None,
        }
    }

    /// Packs the convolution `geom` of `(c, h, w)` images for `tier`:
    /// `weights` is the `[rows, c·k·k]` weight matrix (row-major, columns
    /// in `(ch, ky, kx)` order) and `bias` its `rows` biases.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when [`Self::lanes`] has no build for
    /// `tier`, `bias` is empty, `weights.len() != bias.len()·c·k·k`, `c`
    /// is 0, the window does not fit the padded image, or the padded
    /// image has `u32::MAX` floats or more.
    pub fn new(
        tier: Tier,
        (c, h, w): (usize, usize, usize),
        geom: ConvGeometry,
        weights: &[f32],
        bias: &[f32],
    ) -> Result<Self, ShapeError> {
        let fail = |why: String| Err(ShapeError::new("FloatConv::new", why));
        let Some(lanes) = Self::lanes(tier) else {
            return fail(format!("{tier:?} has no channel-lane build on this CPU"));
        };
        let ConvGeometry {
            kernel: k,
            stride,
            padding,
        } = geom;
        let (rows, fan_in) = (bias.len(), c * k * k);
        let (oh, ow) = (geom.output_dim(h), geom.output_dim(w));
        if rows == 0 || fan_in == 0 || weights.len() != rows * fan_in || oh == 0 || ow == 0 {
            return fail(format!(
                "{} weights and {rows} biases for a {k}×{k} stride {stride} padding {padding} \
                 convolution of {c}×{h}×{w} images",
                weights.len()
            ));
        }
        // `output_dim > 0` means `h + 2·padding` did not overflow.
        let padded_w = w + 2 * padding;
        let mut pitch = (h + 2 * padding) * padded_w;
        if pitch.is_multiple_of(PAGE_FLOATS) {
            pitch += 16;
        }
        if c.checked_mul(pitch)
            .is_none_or(|len| len >= u32::MAX as usize)
        {
            return fail(format!("a padded {c}×{pitch} image exceeds u32 offsets"));
        }
        let taps: Vec<u32> = (0..c)
            .flat_map(|ch| {
                (0..k).flat_map(move |ky| (0..k).map(move |kx| ch * pitch + ky * padded_w + kx))
            })
            .map(|t| t as u32)
            .collect();
        let corners: Vec<u32> = (0..oh)
            .flat_map(|oy| (0..ow).map(move |ox| ((oy * padded_w + ox) * stride) as u32))
            .collect();
        // The last corner's last tap is the furthest read; the kernels'
        // unchecked patch reads rely on it lying inside the buffer.
        let reach = corners[corners.len() - 1] as usize + taps[fan_in - 1] as usize;
        if reach >= c * pitch {
            return fail(format!("tap {reach} lies outside a {c}×{pitch} image"));
        }
        let blocks = rows.div_ceil(lanes);
        let mut packed = vec![0.0; blocks * fan_in * lanes];
        for (r, row) in weights.chunks_exact(fan_in).enumerate() {
            let block = &mut packed[r / lanes * fan_in * lanes..][..fan_in * lanes];
            for (dst, &wt) in block[r % lanes..].iter_mut().step_by(lanes).zip(row) {
                *dst = wt;
            }
        }
        let mut padded_bias = vec![0.0; blocks * lanes];
        padded_bias[..rows].copy_from_slice(bias);
        Ok(Self {
            tier,
            rows,
            input: (c, h, w),
            padding,
            padded_w,
            pitch,
            weights: packed,
            bias: padded_bias,
            taps,
            corners,
        })
    }

    /// The `(c, h, w)` image size this convolution was packed for.
    pub fn input(&self) -> (usize, usize, usize) {
        self.input
    }

    /// Floats of the padded image [`Self::run`] builds in its scratch.
    pub fn padded_len(&self) -> usize {
        self.input.0 * self.pitch
    }

    /// Convolves one image: `image` holds its `c·h·w` floats (NCHW) and
    /// `out` receives its `[rows, oh·ow]` output, overwritten. `padded`
    /// is scratch: every float of it the taps read is written first (the
    /// image, and zeros in its border), so a reused buffer may hold
    /// anything.
    ///
    /// # Panics
    ///
    /// Panics when `image` or `out` has the wrong length.
    pub fn run(&self, image: &[f32], padded: &mut Vec<f32>, out: &mut [f32]) {
        let (c, h, w) = self.input;
        let pixels = self.corners.len();
        assert!(
            image.len() == c * h * w && out.len() == self.rows * pixels,
            "FloatConv::run: {} floats for a {c}×{h}×{w} image, {} for a {}×{pixels} output",
            image.len(),
            out.len(),
            self.rows
        );
        // Each plane: `p` zero rows, `h` rows of `p` zeros, the image row
        // and `p` zeros, then `p` zero rows. The rest of the pitch is
        // never read.
        padded.resize(self.padded_len(), 0.0);
        let (p, pw) = (self.padding, self.padded_w);
        for (ch, dst) in padded.chunks_exact_mut(self.pitch).enumerate() {
            let (top, rows) = dst.split_at_mut(p * pw);
            top.fill(0.0);
            let (rows, bottom) = rows.split_at_mut(h * pw);
            bottom[..p * pw].fill(0.0);
            for (y, row) in rows.chunks_exact_mut(pw).enumerate() {
                row[..p].fill(0.0);
                row[p..p + w].copy_from_slice(&image[(ch * h + y) * w..][..w]);
                row[p + w..].fill(0.0);
            }
        }
        match self.tier {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 if self.tier.runs(Family::Gemm) => {
                // SAFETY: `runs` just confirmed that this CPU executes
                // AVX-512F, the one feature `float_conv_avx512` is
                // compiled with.
                unsafe { float_conv_avx512(self, padded, out) }
            }
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 if self.tier.runs(Family::Gemm) => {
                // SAFETY: `runs` just confirmed that this CPU executes
                // AVX2, the one feature `float_conv_avx2` is compiled
                // with.
                unsafe { float_conv_avx2(self, padded, out) }
            }
            _ => unreachable!("FloatConv::new builds only for a tier this CPU runs"),
        }
    }
}

/// The loop nest of every tier: per block of `L` channels and tile of
/// `P` output pixels (the last tile repeats the final pixel in its spare
/// slots), the biased register tile from `tile`, stored transposed into
/// the `[rows, pixels]` output, real channels and pixels only. `tile`
/// gets the block's weights and bias and the tile's window corners.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn float_conv_blocks<const L: usize, const P: usize>(
    c: &FloatConv,
    padded: &[f32],
    out: &mut [f32],
    tile: impl Fn(&[f32], &[f32], [usize; P]) -> [[f32; L]; P],
) {
    assert_eq!(padded.len(), c.padded_len(), "padded image size");
    let (fan_in, pixels) = (c.taps.len(), c.corners.len());
    let blocks = c
        .weights
        .chunks_exact(fan_in * L)
        .zip(c.bias.chunks_exact(L));
    for (b, (wb, bias)) in blocks.enumerate() {
        let rows = (c.rows - b * L).min(L);
        let dst = &mut out[b * L * pixels..][..rows * pixels];
        for t0 in (0..pixels).step_by(P) {
            let corners = std::array::from_fn(|p| c.corners[(t0 + p).min(pixels - 1)] as usize);
            let acc = tile(wb, bias, corners);
            let count = (pixels - t0).min(P);
            for (l, row) in dst.chunks_exact_mut(pixels).enumerate() {
                for (o, a) in row[t0..t0 + count].iter_mut().zip(&acc) {
                    *o = a[l];
                }
            }
        }
    }
}

/// The channel-lane convolution on AVX-512F: 32 lanes in two `zmm`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn float_conv_avx512(c: &FloatConv, padded: &[f32], out: &mut [f32]) {
    const P: usize = CONV_PIXELS_AVX512;
    float_conv_blocks::<32, P>(c, padded, out, |wb, bias, corners| {
        // SAFETY: `FloatConv::new` checked that the furthest window
        // corner plus the furthest tap lies below `c·pitch`, the length
        // `float_conv_blocks` asserted for `padded`.
        let acc = unsafe { float_tile_avx512::<P>(wb, &c.taps, padded, corners) };
        let mut tile = [[0.0f32; 32]; P];
        for (dst, a) in tile.iter_mut().zip(acc) {
            for ((d, a), b) in dst.chunks_exact_mut(16).zip(a).zip(bias.chunks_exact(16)) {
                // SAFETY: `d` and `b` hold 16 floats each, exactly the 64
                // bytes one unaligned load or store moves.
                unsafe {
                    let sum = _mm512_add_ps(a, _mm512_loadu_ps(b.as_ptr()));
                    _mm512_storeu_ps(d.as_mut_ptr(), sum);
                }
            }
        }
        tile
    });
}

/// One AVX-512 register tile: `P` output pixels (window corners
/// `corners`) × the 32 lanes of one block's weights `wb`, over every tap.
///
/// # Safety
///
/// Every `corners[p] + taps[t]` must lie below `padded.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn float_tile_avx512<const P: usize>(
    wb: &[f32],
    taps: &[u32],
    padded: &[f32],
    corners: [usize; P],
) -> [[__m512; 2]; P] {
    let at = corners.map(|c| padded.as_ptr().wrapping_add(c));
    // SAFETY: the caller guarantees that `corner + tap` is in bounds.
    let x = |p: usize, t: u32| _mm512_set1_ps(unsafe { *at[p].add(t as usize) });
    let load = |w: &[f32]| {
        // SAFETY: `w[..32]` is 32 floats (the index panics on a shorter
        // slice), exactly the 128 bytes two unaligned loads read.
        unsafe {
            [
                _mm512_loadu_ps(w[..32].as_ptr()),
                _mm512_loadu_ps(w[16..32].as_ptr()),
            ]
        }
    };
    let mut acc = [[_mm512_setzero_ps(); 2]; P];
    let mut t4 = taps.chunks_exact(4);
    let mut w4 = wb.chunks_exact(4 * 32);
    for (t, w) in (&mut t4).zip(&mut w4) {
        let wv = [load(w), load(&w[32..]), load(&w[64..]), load(&w[96..])];
        for (p, a) in acc.iter_mut().enumerate() {
            let xs = [x(p, t[0]), x(p, t[1]), x(p, t[2]), x(p, t[3])];
            for (v, a) in a.iter_mut().enumerate() {
                let m = |j: usize| _mm512_mul_ps(xs[j], wv[j][v]);
                let group = _mm512_add_ps(_mm512_add_ps(_mm512_add_ps(m(0), m(1)), m(2)), m(3));
                *a = _mm512_add_ps(*a, group);
            }
        }
    }
    for (&t, w) in t4.remainder().iter().zip(w4.remainder().chunks_exact(32)) {
        let wv = load(w);
        for (p, a) in acc.iter_mut().enumerate() {
            let xv = x(p, t);
            for (a, &w) in a.iter_mut().zip(&wv) {
                *a = _mm512_add_ps(*a, _mm512_mul_ps(xv, w));
            }
        }
    }
    acc
}

/// The channel-lane convolution on AVX2: 8 lanes in one `ymm`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn float_conv_avx2(c: &FloatConv, padded: &[f32], out: &mut [f32]) {
    const P: usize = CONV_PIXELS_AVX2;
    float_conv_blocks::<8, P>(c, padded, out, |wb, bias, corners| {
        // SAFETY: as in `float_conv_avx512`.
        let acc = unsafe { float_tile_avx2::<P>(wb, &c.taps, padded, corners) };
        let mut tile = [[0.0f32; 8]; P];
        for (dst, a) in tile.iter_mut().zip(acc) {
            // SAFETY: `dst` and `bias` hold 8 floats each, exactly the 32
            // bytes one unaligned load or store moves.
            unsafe {
                let sum = _mm256_add_ps(a, _mm256_loadu_ps(bias[..8].as_ptr()));
                _mm256_storeu_ps(dst.as_mut_ptr(), sum);
            }
        }
        tile
    });
}

/// One AVX2 register tile: `P` output pixels × the 8 lanes of one block.
///
/// # Safety
///
/// Every `corners[p] + taps[t]` must lie below `padded.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn float_tile_avx2<const P: usize>(
    wb: &[f32],
    taps: &[u32],
    padded: &[f32],
    corners: [usize; P],
) -> [__m256; P] {
    let at = corners.map(|c| padded.as_ptr().wrapping_add(c));
    // SAFETY: the caller guarantees that `corner + tap` is in bounds.
    let x = |p: usize, t: u32| _mm256_set1_ps(unsafe { *at[p].add(t as usize) });
    let load = |w: &[f32]| {
        // SAFETY: `w[..8]` is 8 floats (the index panics on a shorter
        // slice), exactly the 32 bytes one unaligned load reads.
        unsafe { _mm256_loadu_ps(w[..8].as_ptr()) }
    };
    let mut acc = [_mm256_setzero_ps(); P];
    let mut t4 = taps.chunks_exact(4);
    let mut w4 = wb.chunks_exact(4 * 8);
    for (t, w) in (&mut t4).zip(&mut w4) {
        let wv = [load(w), load(&w[8..]), load(&w[16..]), load(&w[24..])];
        for (p, a) in acc.iter_mut().enumerate() {
            let m = |j: usize| _mm256_mul_ps(x(p, t[j]), wv[j]);
            let group = _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(m(0), m(1)), m(2)), m(3));
            *a = _mm256_add_ps(*a, group);
        }
    }
    for (&t, w) in t4.remainder().iter().zip(w4.remainder().chunks_exact(8)) {
        let wv = load(w);
        for (p, a) in acc.iter_mut().enumerate() {
            *a = _mm256_add_ps(*a, _mm256_mul_ps(x(p, t), wv));
        }
    }
    acc
}

// ---- Gemm: the max pool ----

/// `k×k` max pooling at stride `s` (no padding) of every `(h, w)` plane
/// of `input` into `out`, planes `(oh, ow) = ((h − k)/s + 1, (w − k)/s + 1)`
/// apart, on `tier` (the portable build where the CPU lacks the tier's
/// features).
///
/// Each output is `best` after `best = v` for every tap `v > best`, taps
/// in `(ky, kx)` order from `best = −∞`: a NaN tap is skipped, an all-NaN
/// window gives −∞, and of equal taps (+0.0 and −0.0 included) the first
/// is kept. The AVX-512 and AVX2 builds run strides 1 and 2 (a stride-2
/// tap row is deinterleaved from two loads), one output row at a time in
/// 16 or 8 lanes, and update with `maxps(v, best)`, which is that step
/// lane by lane: it returns its second operand unless `v > best`. Other
/// strides run the portable build, the definition.
///
/// # Panics
///
/// Panics when `k` or `s` is 0, the window does not fit a plane, or the
/// lengths of `input` and `out` are not whole planes of one count.
pub fn max_pool(
    tier: Tier,
    input: &[f32],
    (h, w): (usize, usize),
    (k, s): (usize, usize),
    out: &mut [f32],
) {
    assert!(
        k > 0 && s > 0 && h >= k && w >= k,
        "max_pool: a {k}×{k} window at stride {s} over {h}×{w} planes"
    );
    let (oh, ow) = ((h - k) / s + 1, (w - k) / s + 1);
    assert!(
        input.len().is_multiple_of(h * w) && out.len() == input.len() / (h * w) * oh * ow,
        "max_pool: {} input and {} output floats for {h}×{w} → {oh}×{ow} planes",
        input.len(),
        out.len()
    );
    let dims = ((h, w), (k, s), (oh, ow));
    match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 if s <= 2 && tier.runs(Family::Gemm) => {
            // SAFETY: `runs` just confirmed that this CPU executes
            // AVX-512F, the one feature `max_pool_avx512` is compiled with.
            unsafe { max_pool_avx512(input, dims, out) }
        }
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 if s <= 2 && tier.runs(Family::Gemm) => {
            // SAFETY: `runs` just confirmed that this CPU executes AVX2,
            // the one feature `max_pool_avx2` is compiled with.
            unsafe { max_pool_avx2(input, dims, out) }
        }
        _ => max_pool_portable(input, dims, out),
    }
}

/// A max pool's `((h, w), (k, s), (oh, ow))`.
type PoolDims = ((usize, usize), (usize, usize), (usize, usize));

/// The definition every tier matches, and the portable tier: per output
/// pixel, the window's `k` row slices in `(ky, kx)` order.
fn max_pool_portable(input: &[f32], ((h, w), (k, s), (oh, ow)): PoolDims, out: &mut [f32]) {
    for (plane, dst) in input.chunks_exact(h * w).zip(out.chunks_exact_mut(oh * ow)) {
        for (oy, orow) in dst.chunks_exact_mut(ow).enumerate() {
            let window = &plane[oy * s * w..];
            for (ox, o) in orow.iter_mut().enumerate() {
                let mut best = f32::NEG_INFINITY;
                for ky in 0..k {
                    for &v in &window[ky * w + ox * s..][..k] {
                        if v > best {
                            best = v;
                        }
                    }
                }
                *o = best;
            }
        }
    }
}

/// The max pool on AVX-512F at stride 1 or 2: per output row, 16
/// outputs at a time under a mask, each tap a masked load (two and a
/// `vpermt2ps` of the even lanes at stride 2).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn max_pool_avx512(input: &[f32], ((h, w), (k, s), (oh, ow)): PoolDims, out: &mut [f32]) {
    let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
    for (plane, dst) in input.chunks_exact(h * w).zip(out.chunks_exact_mut(oh * ow)) {
        for (oy, orow) in dst.chunks_exact_mut(ow).enumerate() {
            for (chunk, outs) in orow.chunks_mut(16).enumerate() {
                let n = outs.len();
                // A tap reads `span` floats: `n`, or `2n − 1` at stride 2.
                let span = (n - 1) * s + 1;
                let lanes = ((1u64 << span) - 1) as u32;
                let (lo, hi) = (lanes as u16, (lanes >> 16) as u16);
                let mut best = _mm512_set1_ps(f32::NEG_INFINITY);
                for ky in 0..k {
                    let row = &plane[(oy * s + ky) * w..][..w];
                    for kx in 0..k {
                        let from = &row[chunk * 16 * s + kx..][..span];
                        // SAFETY: the masks enable exactly the `span`
                        // floats of `from`, the first 16 in the first
                        // load; disabled lanes are not read.
                        let v = unsafe {
                            let first = _mm512_maskz_loadu_ps(lo, from.as_ptr());
                            if s == 1 {
                                first
                            } else {
                                let second =
                                    _mm512_maskz_loadu_ps(hi, from.as_ptr().wrapping_add(16));
                                _mm512_permutex2var_ps(first, even, second)
                            }
                        };
                        best = _mm512_max_ps(v, best);
                    }
                }
                // SAFETY: the mask enables exactly the `n` floats of
                // `outs`.
                unsafe { _mm512_mask_storeu_ps(outs.as_mut_ptr(), ((1u32 << n) - 1) as u16, best) };
            }
        }
    }
}

/// The max pool on AVX2 at stride 1 or 2: per output row, 8 outputs at
/// a time under a lane mask, each tap a masked load (two, a `vshufps` of
/// the even lanes and a `vpermpd` at stride 2).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn max_pool_avx2(input: &[f32], ((h, w), (k, s), (oh, ow)): PoolDims, out: &mut [f32]) {
    let index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let below = |n: usize| _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), index);
    for (plane, dst) in input.chunks_exact(h * w).zip(out.chunks_exact_mut(oh * ow)) {
        for (oy, orow) in dst.chunks_exact_mut(ow).enumerate() {
            for (chunk, outs) in orow.chunks_mut(8).enumerate() {
                let n = outs.len();
                let span = (n - 1) * s + 1;
                let (lo, hi) = (below(span.min(8)), below(span.saturating_sub(8)));
                let mut best = _mm256_set1_ps(f32::NEG_INFINITY);
                for ky in 0..k {
                    let row = &plane[(oy * s + ky) * w..][..w];
                    for kx in 0..k {
                        let from = &row[chunk * 8 * s + kx..][..span];
                        // SAFETY: the masks enable exactly the `span`
                        // floats of `from`, the first 8 in the first
                        // load; disabled lanes are not read.
                        let v = unsafe {
                            let first = _mm256_maskload_ps(from.as_ptr(), lo);
                            if s == 1 {
                                first
                            } else {
                                let second = _mm256_maskload_ps(from.as_ptr().wrapping_add(8), hi);
                                // Even lanes of each 128-bit half, then
                                // the halves' pairs in order.
                                let evens = _mm256_shuffle_ps::<0b10_00_10_00>(first, second);
                                _mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(
                                    _mm256_castps_pd(evens),
                                ))
                            }
                        };
                        best = _mm256_max_ps(v, best);
                    }
                }
                // SAFETY: the mask enables exactly the `n` floats of
                // `outs`.
                unsafe { _mm256_maskstore_ps(outs.as_mut_ptr(), below(n), best) };
            }
        }
    }
}

// ---- Int: the channel-lane integer kernels ----

/// `i32` lanes of one 512-bit channel group.
const LANES: usize = 16;

/// Output channels per register block: four 16-lane `i32` groups, or
/// eight 8-lane `u64` groups in the popcount kernel.
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
///
/// The packed weights start on a 64-byte boundary, so every vector is
/// one aligned line; sixteen steps of a 16-lane group are the `u8` tile
/// convolution's B tile, read in place at a 256-byte stride.
#[derive(Debug)]
pub struct LaneWeights<A: LaneAct> {
    rows: usize,
    steps: usize,
    /// The packed weights from `start`, over-allocated by 64 bytes so
    /// that `start` can sit on a 64-byte boundary.
    data: Vec<A::Weight>,
    start: usize,
}

/// A clone packs into a fresh aligned allocation (a derived clone would
/// keep `start` but not the alignment).
impl<A: LaneAct> Clone for LaneWeights<A> {
    fn clone(&self) -> Self {
        let mut w = Self::zeroed(self.rows, self.steps);
        w.packed_mut().copy_from_slice(self.packed());
        w
    }
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
        let mut lanes = Self::zeroed(rows, steps);
        // Per 64-row block: each row in packed column order (source
        // column `ch·taps + tap` is packed column `tap·c + ch`), then the
        // block in destination order, `[step][lane][STEP]`, copied from
        // those row slices.
        let mut packed = vec![A::Weight::default(); rows.min(BLOCK) * stride];
        let mut exact = true;
        for (block, dst) in weights
            .chunks(BLOCK * cols)
            .zip(lanes.packed_mut().chunks_exact_mut(block_len))
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
        Ok(lanes)
    }

    /// Zero weights for `rows` rows of `steps` steps, 64-byte aligned.
    fn zeroed(rows: usize, steps: usize) -> Self {
        let slack = 64 / std::mem::size_of::<A::Weight>();
        let data = vec![A::Weight::default(); Self::packed_len(rows, steps) + slack];
        // `align_offset` may answer `usize::MAX` where it cannot tell; the
        // weights then start unaligned, which only costs speed.
        let start = data.as_ptr().align_offset(64).min(slack);
        Self {
            rows,
            steps,
            data,
            start,
        }
    }

    /// Packed weights of `rows` rows of `steps` steps: whole blocks.
    fn packed_len(rows: usize, steps: usize) -> usize {
        rows.div_ceil(BLOCK) * steps * BLOCK * A::STEP
    }

    /// Every block's packed weights.
    fn packed(&self) -> &[A::Weight] {
        &self.data[self.start..][..Self::packed_len(self.rows, self.steps)]
    }

    /// [`Self::packed`], mutably.
    fn packed_mut(&mut self) -> &mut [A::Weight] {
        let len = Self::packed_len(self.rows, self.steps);
        &mut self.data[self.start..][..len]
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
        A::sums(tier.vector(), self, patches, out);
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

    /// The levels of a valid `k×k` convolution over an `(h, w, c)` map,
    /// row by row: [`Self::row_sums`] into `patches` and `sums`, then
    /// [`LaneLadder::levels`] appended to the cleared `out`, which ends
    /// as the `(oh, ow, rows)` map of levels; `(rows, oh, ow)` is
    /// returned. The `i16` pair weights run here, over `u8` levels or
    /// `i16` pixels; `u8` weights enter through
    /// [`LaneWeights::conv_levels`], which tries tiles first.
    ///
    /// # Panics
    ///
    /// Panics when the ladder's rows differ from the weights', the map is
    /// smaller than `k×k` or holds fewer than `c·h·w` elements.
    #[allow(clippy::too_many_arguments)]
    pub fn conv_rows<S: Copy>(
        &self,
        tier: Tier,
        ladder: &LaneLadder,
        map: &[S],
        (c, h, w): (usize, usize, usize),
        k: usize,
        patches: &mut Vec<A>,
        sums: &mut Vec<i32>,
        out: &mut Vec<u8>,
    ) -> (usize, usize, usize)
    where
        A: From<S>,
    {
        assert!(
            ladder.rows == self.rows && h >= k && w >= k && map.len() >= c * h * w,
            "a {}-row ladder on {} rows over a {h}×{w}×{c} map of {} elements, k {k}",
            ladder.rows,
            self.rows,
            map.len()
        );
        out.clear();
        for oy in 0..=h - k {
            self.row_sums(tier, map, (c, w, k), oy, patches, sums);
            ladder.levels(tier, sums, self.lanes(), out);
        }
        (self.rows, h - k + 1, w - k + 1)
    }

    /// The packed weights of one 64-row block.
    fn block(&self, b: usize) -> &[A::Weight] {
        let len = self.steps * BLOCK * A::STEP;
        &self.packed()[b * len..(b + 1) * len]
    }
}

impl LaneWeights<u8> {
    /// A valid `k×k` convolution over an `(h, w, c)` map of `u8` levels,
    /// read out through `ladder` (one ladder per row): `out` is cleared
    /// and filled with the `(oh, ow, rows)` map of levels,
    /// `oh = h − k + 1` and `ow = w − k + 1`, and `(rows, oh, ow)` is
    /// returned. A dense layer is `k = 1` over a one-pixel map of every
    /// input.
    ///
    /// On [`Tier::Amx`] it runs on AMX tiles, reading the map in place
    /// and holding one band of 32 positions' sums in `sums`, where `k·c`
    /// is a multiple of 64 and the output has more than one pixel;
    /// elsewhere it runs [`Self::conv_rows`], which uses `patches` and
    /// `sums`. Both give the same levels.
    ///
    /// # Panics
    ///
    /// Panics when the ladder's rows differ from the weights', the map is
    /// smaller than `k×k` or holds fewer than `c·h·w` levels.
    #[allow(clippy::too_many_arguments)]
    pub fn conv_levels(
        &self,
        tier: Tier,
        ladder: &LaneLadder,
        map: &[u8],
        (c, h, w): (usize, usize, usize),
        k: usize,
        patches: &mut Vec<u8>,
        sums: &mut Vec<i32>,
        out: &mut Vec<u8>,
    ) -> (usize, usize, usize) {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        if tier == Tier::Amx
            && tier.runs(Family::Int)
            && tiles_pay((c, h, w), k)
            && self.stride() == k * k * c
            && ladder.rows == self.rows
            && map.len() >= c * h * w
        {
            let (oh, ow) = (h - k + 1, w - k + 1);
            out.clear();
            out.resize(oh * ow * self.rows, 0);
            // SAFETY: `runs` just confirmed that this CPU executes
            // AVX-512F, AVX-512 VNNI and AMX-INT8 and that Linux granted
            // this process tile state; `conv_amx` is compiled with the
            // first two and runs the third through `asm!`. `tiles_pay`
            // and the stride check give the geometry `conv_amx` needs.
            unsafe { conv_amx(self, ladder, map, (c, h, w), k, sums, out) };
            return (self.rows, oh, ow);
        }
        self.conv_rows(tier, ladder, map, (c, h, w), k, patches, sums, out)
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
        let tier = tier.vector();
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
        let tier = tier.vector();
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

/// The ladder on AVX-512, one 16-row group at a time over every sum row
/// ([`group_levels_avx512`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
fn levels_avx512(l: &LaneLadder, sums: &[i32], lanes: usize, out: &mut [u8]) {
    let n = sums.len() / lanes;
    for g in 0..l.rows.div_ceil(LANES) {
        let at = g * LANES;
        group_levels_avx512(l, g, sums, out, n, |p| (p * lanes + at, p * l.rows + at));
    }
}

/// Group `g`'s levels of the 16 sums at `(sum, level)` index pair
/// `at(i)` for each `i < n`, written as the group's `min(16, rows − 16g)`
/// bytes at the level index: one `vpcmpgtd` into a mask and one masked
/// `vpaddd` per bound, `vpmovdb` to narrow. A 15-bound ladder (4-bit
/// activations, the width the per-stage timing measured) holds its keys
/// and signs in 30 registers across the pixels; other ladders load them
/// per pixel. `at` is a closure, not an iterator, so that it inlines
/// into this AVX-512 body (an iterator adapter's `next`, built without
/// the target features, stays a call and spills the keys).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
#[inline]
fn group_levels_avx512(
    l: &LaneLadder,
    g: usize,
    sums: &[i32],
    out: &mut [u8],
    n: usize,
    at: impl Fn(usize) -> (usize, usize),
) {
    match l.bounds {
        15 => resident_levels_avx512::<15>(l, g, sums, out, n, at),
        _ => resident_levels_avx512::<0>(l, g, sums, out, n, at),
    }
}

/// [`group_levels_avx512`] with the first `R ≤ bounds` bounds' keys and
/// signs in `2·R` registers and bounds `R..` loaded per pixel.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
#[inline]
fn resident_levels_avx512<const R: usize>(
    l: &LaneLadder,
    g: usize,
    sums: &[i32],
    out: &mut [u8],
    n: usize,
    at: impl Fn(usize) -> (usize, usize),
) {
    let load = |v: &[i32]| {
        // SAFETY: `v[..LANES]` is 16 `i32` (the index panics on a shorter
        // slice), exactly the 64 bytes one unaligned load reads.
        unsafe { _mm512_loadu_si512(v[..LANES].as_ptr().cast()) }
    };
    let (keys, signs) = l.group(g);
    let (keys, _) = keys.as_chunks::<LANES>();
    let (signs, _) = signs.as_chunks::<LANES>();
    let (rest_keys, rest_signs) = (&keys[R..], &signs[R..]);
    let mut kv = [_mm512_setzero_si512(); R];
    let mut sv = [_mm512_setzero_si512(); R];
    for ((kv, sv), (k, sg)) in kv.iter_mut().zip(&mut sv).zip(keys.iter().zip(signs)) {
        (*kv, *sv) = (load(k), load(sg));
    }
    let base = load(&l.base[g * LANES..]);
    let width = LANES.min(l.rows - g * LANES);
    for i in 0..n {
        let (s, o) = at(i);
        let x = load(&sums[s..]);
        let mut count = base;
        for (&kv, &sv) in kv.iter().zip(&sv) {
            count = _mm512_mask_add_epi32(count, _mm512_cmpgt_epi32_mask(x, kv), count, sv);
        }
        for (k, sg) in rest_keys.iter().zip(rest_signs) {
            count =
                _mm512_mask_add_epi32(count, _mm512_cmpgt_epi32_mask(x, load(k)), count, load(sg));
        }
        store_levels(&mut out[o..o + width], _mm512_cvtepi32_epi8(count));
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

// ---- Int: the AMX tile convolution ----

/// Rows of an AMX tile: output positions of an A or accumulator tile,
/// weight steps of a B tile.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
const TILE_ROWS: usize = 16;

/// Output channels of a band: two B tiles of 16 lanes.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
const PAIR: usize = 2 * LANES;

/// Whether `LaneWeights::<u8>::conv_levels` runs a `k×k` convolution
/// over `(h, w, c)` maps on tiles. Each 64-byte tile row must lie inside
/// one kernel row's run of `k·c` contiguous map bytes, so `k·c` must be
/// a multiple of 64, and the output must have more than one pixel: on
/// the paper's one-pixel stage (256 channels at 3×3) the tiles ran 0.93×
/// the vector kernel on one busy core and 0.33× with both cores busy,
/// and they win on every larger map of the paper's stages.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn tiles_pay((c, h, w): (usize, usize, usize), k: usize) -> bool {
    (k * c).is_multiple_of(64) && h >= k && w >= k && (h - k + 1) * (w - k + 1) > 1
}

/// An AMX tile configuration (palette 1): `tmm0`–`tmm3` accumulate a band's
/// 2 × 2 sum tiles, `tmm4`–`tmm5` hold its two position tiles (A) and
/// `tmm6`–`tmm7` its two weight tiles (B); every row is 64 bytes.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[repr(C, align(64))]
struct TileConfig {
    palette: u8,
    start_row: u8,
    reserved: [u8; 14],
    colsb: [u16; 16],
    rows: [u8; 16],
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
impl TileConfig {
    /// Accumulator and A tiles of `tile ≤ 16` positions, B tiles of 16
    /// steps.
    fn new(tile: usize) -> Self {
        let mut cfg = Self {
            palette: 1,
            start_row: 0,
            reserved: [0; 14],
            colsb: [0; 16],
            rows: [0; 16],
        };
        cfg.colsb[..8].fill(64);
        cfg.rows[..6].fill(tile as u8);
        cfg.rows[6..8].fill(TILE_ROWS as u8);
        cfg
    }
}

/// The sums of one band of a pair of B tiles: two tiles of positions ×
/// two tiles of 16 channels, `[32 positions][32 channels]`, 4 KiB.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
const BAND: usize = 2 * TILE_ROWS * PAIR;

/// The `u8` convolution on AMX-INT8 tiles, no patch gathered.
///
/// Output position `q = oy·w + ox` of tap row `ky` reads the `k·c` map
/// bytes from pixel `q + ky·w`, so 16 consecutive positions are 16 map
/// rows `c` bytes apart: one `tileloadd` per 64-byte chunk of the run.
/// Every `q < (oh − 1)·w + ow` is computed and the `ox ≥ ow` ones (which
/// wrap into the next row) are skipped at readout, so maps narrower than
/// 16 need no special case. One B tile is 16 steps of one 16-lane group
/// of [`LaneWeights`]' packing, read in place at its 256-byte stride;
/// `tdpbusd` multiplies `u8` by `i8` in quads, as `vpdpbusd` does.
///
/// Per band of two A tiles (32 positions, fewer on small maps: every
/// tile holds `min(16, ⌈positions/2⌉)`), each pair of B tiles (32
/// channels) accumulates all 8 tile registers over the whole fan-in and
/// stores them to its 4 KiB of `sums`; then the band is read out through
/// the ladder, every channel at once, while its sums are in L1. The last
/// band's tiles are moved back to end at the last position (recomputing
/// a few), so no read passes the map's last position.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[target_feature(enable = "avx512f,avx512vnni")]
fn conv_amx(
    w: &LaneWeights<u8>,
    l: &LaneLadder,
    map: &[u8],
    (c, h, wd): (usize, usize, usize),
    k: usize,
    sums: &mut Vec<i32>,
    out: &mut [u8],
) {
    use std::arch::asm;
    const LINE: usize = 64;
    const STEP_BYTES: usize = BLOCK * 4;
    let (oh, ow) = (h - k + 1, wd - k + 1);
    let positions = (oh - 1) * wd + ow;
    let tile = positions.div_ceil(2).min(TILE_ROWS);
    // Every tile read is checked against the map itself, not the
    // buffer that holds it.
    let map = &map[..c * h * wd];
    let (run, chunks) = (k * c, k * k * c / LINE);
    let cfg = TileConfig::new(tile);
    let pairs = l.rows.div_ceil(PAIR);
    // One band per pair, from a 64-byte boundary (`align_offset` may
    // answer `usize::MAX`; the stores then run unaligned). Stale sums
    // may stay: the readout reads only rows the tiles store.
    sums.resize(pairs * BAND + LANES, 0);
    let start = sums.as_ptr().align_offset(64).min(LANES);
    let bands = &mut sums[start..][..pairs * BAND];
    // (band slot offset, level offset) of each new position of a band.
    let mut spots = [(0, 0); 2 * TILE_ROWS];
    // SAFETY: `ldtilecfg` reads the 64-byte configuration `cfg` points to.
    unsafe { asm!("ldtilecfg [{}]", in(reg) &cfg, options(nostack, readonly, preserves_flags)) };
    let mut done = 0;
    while done < positions {
        let t = [
            done.min(positions - tile),
            (done + tile).min(positions - tile),
        ];
        // New positions `done..end`: those of tile 1, and those of tile 0
        // before tile 1 starts.
        let end = t[1] + tile;
        let mut n = 0;
        for q in done..end {
            let (oy, ox) = (q / wd, q % wd);
            if ox < ow {
                let slot = if q >= t[1] {
                    TILE_ROWS + q - t[1]
                } else {
                    q - t[0]
                };
                spots[n] = (slot * PAIR, (oy * ow + ox) * l.rows);
                n += 1;
            }
        }
        for (pair, band) in bands.chunks_exact_mut(BAND).enumerate() {
            let blk = w.block(pair * PAIR / BLOCK);
            let lane_byte = pair * PAIR % BLOCK * 4;
            // SAFETY: `tilezero` writes only tile registers.
            unsafe {
                asm!(
                    "tilezero tmm0",
                    "tilezero tmm1",
                    "tilezero tmm2",
                    "tilezero tmm3",
                    options(nostack, preserves_flags)
                )
            };
            for j in 0..chunks {
                let (ky, off) = (j * LINE / run, j * LINE % run);
                let a = |t: usize| &map[(t + ky * wd) * c + off..][..(tile - 1) * c + LINE];
                let (a0, a1) = (a(t[0]), a(t[1]));
                let b = &blk[j * TILE_ROWS * STEP_BYTES + lane_byte..]
                    [..(TILE_ROWS - 1) * STEP_BYTES + 2 * LINE];
                // SAFETY: each `tileloadd` reads its tile's rows of 64
                // bytes at the given stride from inside the slice whose
                // start it is given: `tile` rows `c` apart from `a0` and
                // `a1`, whose length is `(tile − 1)·c + 64`; 16 rows 256
                // apart from `b` and from `b + 64`, whose length is
                // `15·256 + 128`. `tdpbusd` touches only tile registers.
                unsafe {
                    asm!(
                        "tileloadd tmm4, [{a0} + {c}*1]",
                        "tileloadd tmm6, [{b} + {s}*1]",
                        "tdpbusd tmm0, tmm4, tmm6",
                        "tileloadd tmm7, [{b} + {s}*1 + 64]",
                        "tdpbusd tmm1, tmm4, tmm7",
                        "tileloadd tmm5, [{a1} + {c}*1]",
                        "tdpbusd tmm2, tmm5, tmm6",
                        "tdpbusd tmm3, tmm5, tmm7",
                        a0 = in(reg) a0.as_ptr(),
                        a1 = in(reg) a1.as_ptr(),
                        c = in(reg) c,
                        b = in(reg) b.as_ptr(),
                        s = in(reg) STEP_BYTES,
                        options(nostack, readonly, preserves_flags)
                    )
                };
            }
            // SAFETY: each `tilestored` writes `tile ≤ 16` rows of 64
            // bytes, 128 apart, from byte 0, 64, 2048 or 2112 of the
            // 4096-byte band: the last row ends at most at
            // 2112 + 15·128 + 64 = 4096.
            unsafe {
                asm!(
                    "tilestored [{p} + {s}*1], tmm0",
                    "tilestored [{p} + {s}*1 + 64], tmm1",
                    "tilestored [{p} + {s}*1 + 2048], tmm2",
                    "tilestored [{p} + {s}*1 + 2112], tmm3",
                    p = in(reg) band.as_mut_ptr(),
                    s = in(reg) PAIR * 4,
                    options(nostack, preserves_flags)
                )
            };
        }
        for g in 0..l.rows.div_ceil(LANES) {
            let band = &bands[g / 2 * BAND..][..BAND];
            group_levels_avx512(l, g, band, out, n, |i| {
                let (s, o) = spots[i];
                (s + g % 2 * LANES, o + g * LANES)
            });
        }
        done = end;
    }
    // SAFETY: `tilerelease` returns the tile registers to their initial
    // state; it touches no memory.
    unsafe { asm!("tilerelease", options(nostack, preserves_flags)) };
}

// ---- Popcount: the binary convolution kernel ----

/// The firing range no popcount falls in (`lo > hi`): padding rows.
const NEVER: (u64, u64) = (1, 0);

/// Patch words the AVX2 build adds into byte counters between two
/// widenings: each word adds at most 8 to a byte, and `31·8 ≤ 255`.
#[cfg(target_arch = "x86_64")]
const BYTE_WORDS: usize = 31;

/// A valid `k×k` binary convolution over channel-packed maps, packed
/// once in the popcount lane layout: weights `[⌈rows/64⌉ blocks][plen][64
/// rows]` with `plen = k·k·words` patch words, and each row's firing
/// range `lo ≤ d ≤ hi` as one `u64` lane of a 64-lane block. Rows past
/// `rows` are zero and never fire.
///
/// A map holds `words` `u64` per pixel, pixels row-major. Output pixel
/// `(oy, ox)`'s patch is the `k` runs of `k·words` contiguous map words
/// that start at pixels `(oy + ky, ox)`, and row `r` fires iff
/// `lo_r ≤ d ≤ hi_r` with `d = Σ_i popcount(w_r[i] ^ x[i])` over the
/// patch words `x` in that order. `d` is an integer sum, so neither the
/// lane width nor the popcount instruction changes it.
#[derive(Debug, Clone)]
pub struct PopcountConv {
    rows: usize,
    words: usize,
    kernel: usize,
    weights: Vec<u64>,
    lo: Vec<u64>,
    hi: Vec<u64>,
}

impl PopcountConv {
    /// Packs `rows` weight rows of `k·k·words` patch words each:
    /// `row(r, words)` writes row `r`'s words into a zeroed slice (word
    /// `(ky·k + kx)·words + j` meets map word `j` of pixel
    /// `(oy + ky, ox + kx)`) and returns the row's firing range
    /// `(lo, hi)`; `lo > hi` never fires. Rows go straight into the
    /// packed layout, one row buffer reused, so construction leaves no
    /// large temporary behind.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `rows`, `words` or `k` is 0.
    pub fn new(
        rows: usize,
        (words, k): (usize, usize),
        mut row: impl FnMut(usize, &mut [u64]) -> (u32, u32),
    ) -> Result<Self, ShapeError> {
        let plen = k * k * words;
        if plen == 0 || rows == 0 {
            return Err(ShapeError::new(
                "PopcountConv::new",
                format!("{rows} rows of {k}×{k}×{words} words"),
            ));
        }
        let lanes = rows.div_ceil(BLOCK) * BLOCK;
        let mut weights = vec![0; lanes * plen];
        let (mut lo, mut hi) = (vec![NEVER.0; lanes], vec![NEVER.1; lanes]);
        let mut buf = vec![0; plen];
        for r in 0..rows {
            buf.fill(0);
            let (l, h) = row(r, &mut buf);
            (lo[r], hi[r]) = (u64::from(l), u64::from(h));
            let block = &mut weights[r / BLOCK * plen * BLOCK..][..plen * BLOCK];
            for (dst, &word) in block[r % BLOCK..].iter_mut().step_by(BLOCK).zip(&buf) {
                *dst = word;
            }
        }
        Ok(Self {
            rows,
            words,
            kernel: k,
            weights,
            lo,
            hi,
        })
    }

    /// Output rows (channels).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Runs the convolution over an `(h, w)` map of `words` words per
    /// pixel on `tier`, or on the portable build when the CPU lacks the
    /// tier's features. `out` is cleared and filled with the
    /// channel-packed `(oh, ow)` output map, `⌈rows/64⌉` words per pixel:
    /// row `r` is bit `r % 64` of word `r / 64`, and bits past `rows` are
    /// zero. Returns `(oh, ow) = (h − k + 1, w − k + 1)`.
    ///
    /// # Panics
    ///
    /// Panics when `h` or `w` is below `k`, or `map.len() != h·w·words`.
    pub fn run(
        &self,
        tier: Tier,
        map: &[u64],
        (h, w): (usize, usize),
        out: &mut Vec<u64>,
    ) -> (usize, usize) {
        let k = self.kernel;
        assert!(
            h >= k && w >= k && map.len() == h * w * self.words,
            "map must be {h}×{w} pixels of {} words, at least {k}×{k}",
            self.words
        );
        let ((oh, ow), _, blocks) = self.geometry((h, w));
        out.clear();
        out.resize(oh * ow * blocks, 0);
        match tier {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 if tier.runs(Family::Popcount) => {
                // SAFETY: `runs` just confirmed that this CPU executes
                // AVX-512F and AVX-512 VPOPCNTDQ, the features
                // `conv_avx512` is compiled with.
                unsafe { conv_avx512(self, map, (h, w), out) }
            }
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 if tier.runs(Family::Popcount) => {
                // SAFETY: `runs` just confirmed that this CPU executes
                // AVX2, the feature `conv_avx2` is compiled with.
                unsafe { conv_avx2(self, map, (h, w), out) }
            }
            _ => conv_portable(self, map, (h, w), out),
        }
        (oh, ow)
    }

    /// 64-row blocks, and output words per pixel.
    fn blocks(&self) -> usize {
        self.rows.div_ceil(BLOCK)
    }

    /// Patch words per map row: the run of one `ky`.
    fn run_len(&self) -> usize {
        self.kernel * self.words
    }

    /// Block `b`'s weights (`[plen][64]`) and its rows' `lo` and `hi`.
    fn block(&self, b: usize) -> (&[u64], &[u64], &[u64]) {
        let len = self.kernel * self.run_len() * BLOCK;
        (
            &self.weights[b * len..][..len],
            &self.lo[b * BLOCK..][..BLOCK],
            &self.hi[b * BLOCK..][..BLOCK],
        )
    }

    /// The output `(oh, ow)` of an `(h, w)` map, its words per map row,
    /// and output words per pixel.
    fn geometry(&self, (h, w): (usize, usize)) -> ((usize, usize), usize, usize) {
        let k = self.kernel;
        ((h - k + 1, w - k + 1), w * self.words, self.blocks())
    }
}

/// The definition every tier matches, and the portable tier: per block,
/// output pixel and part of 16 rows (whose `u64` sums fit in registers),
/// the popcount sums over the patch, then one range test per row.
fn conv_portable(c: &PopcountConv, map: &[u64], hw: (usize, usize), out: &mut [u64]) {
    const PART: usize = 16;
    let ((oh, ow), stride, blocks) = c.geometry(hw);
    let run = c.run_len();
    for b in 0..blocks {
        let (wb, lo, hi) = c.block(b);
        for oy in 0..oh {
            for ox in 0..ow {
                let at = oy * stride + ox * c.words;
                let mut word = 0;
                for part in (0..BLOCK).step_by(PART) {
                    let mut d = [0u64; PART];
                    for (ky, ws) in wb.chunks_exact(run * BLOCK).enumerate() {
                        let xs = &map[at + ky * stride..][..run];
                        for (&x, wr) in xs.iter().zip(ws.chunks_exact(BLOCK)) {
                            for (d, &wr) in d.iter_mut().zip(&wr[part..][..PART]) {
                                *d += u64::from((wr ^ x).count_ones());
                            }
                        }
                    }
                    let ranges = lo[part..].iter().zip(&hi[part..]);
                    for (bit, (&d, (&lo, &hi))) in d.iter().zip(ranges).enumerate() {
                        word |= u64::from(lo <= d && d <= hi) << (part + bit);
                    }
                }
                out[(oy * ow + ox) * blocks + b] = word;
            }
        }
    }
}

/// The AVX-512 build: per block and map row, output pixels two at a time
/// (each weight load serves both, and sixteen `zmm` accumulators hide the
/// popcount latency), then a one-pixel tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
fn conv_avx512(c: &PopcountConv, map: &[u64], hw: (usize, usize), out: &mut [u64]) {
    let ((oh, ow), stride, blocks) = c.geometry(hw);
    for b in 0..blocks {
        let (wb, lo, hi) = c.block(b);
        for oy in 0..oh {
            let mut ox = 0;
            while ox + 2 <= ow {
                let at = oy * stride + ox * c.words;
                let d = popcounts_avx512::<2>(c, wb, &map[at..], stride);
                for (p, d) in d.into_iter().enumerate() {
                    out[(oy * ow + ox + p) * blocks + b] = fired_avx512(d, lo, hi);
                }
                ox += 2;
            }
            if ox < ow {
                let at = oy * stride + ox * c.words;
                let [d] = popcounts_avx512::<1>(c, wb, &map[at..], stride);
                out[(oy * ow + ox) * blocks + b] = fired_avx512(d, lo, hi);
            }
        }
    }
}

/// One register tile: the popcount sums of `P` adjacent output pixels
/// (`map` starts at the first one's patch, map rows `stride` words apart)
/// against one block's 64 rows, in eight `zmm` of `u64` lanes each.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
#[inline]
fn popcounts_avx512<const P: usize>(
    c: &PopcountConv,
    wb: &[u64],
    map: &[u64],
    stride: usize,
) -> [[__m512i; 8]; P] {
    let run = c.run_len();
    let mut acc = [[_mm512_setzero_si512(); 8]; P];
    for (ky, ws) in wb.chunks_exact(run * BLOCK).enumerate() {
        let xs = &map[ky * stride..][..run + (P - 1) * c.words];
        for (j, wr) in ws.chunks_exact(BLOCK).enumerate() {
            let mut wv = [_mm512_setzero_si512(); 8];
            for (v, chunk) in wv.iter_mut().zip(wr.chunks_exact(8)) {
                // SAFETY: `chunk` holds 8 `u64`, exactly the 64 bytes one
                // unaligned load reads.
                *v = unsafe { _mm512_loadu_si512(chunk.as_ptr().cast()) };
            }
            for (p, a) in acc.iter_mut().enumerate() {
                let x = _mm512_set1_epi64(xs[p * c.words + j] as i64);
                for (a, &wv) in a.iter_mut().zip(&wv) {
                    *a = _mm512_add_epi64(*a, _mm512_popcnt_epi64(_mm512_xor_si512(wv, x)));
                }
            }
        }
    }
    acc
}

/// The output word of one pixel's 64 sums: per 8 rows an unsigned
/// `d ≥ lo` compare masking a `d ≤ hi` compare.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
#[inline]
fn fired_avx512(d: [__m512i; 8], lo: &[u64], hi: &[u64]) -> u64 {
    let mut word = 0;
    for (v, d) in d.into_iter().enumerate() {
        // SAFETY: `lo` and `hi` hold one 64-row block (`block`), so each
        // 8-lane slice is in bounds, exactly the 64 bytes one unaligned
        // load reads.
        let (lo, hi) = unsafe {
            (
                _mm512_loadu_si512(lo[8 * v..][..8].as_ptr().cast()),
                _mm512_loadu_si512(hi[8 * v..][..8].as_ptr().cast()),
            )
        };
        let fired = _mm512_mask_cmple_epu64_mask(_mm512_cmpge_epu64_mask(d, lo), d, hi);
        word |= u64::from(fired) << (8 * v);
    }
    word
}

/// The AVX2 build: per block, output pixel and half block of 32 rows,
/// eight `ymm` of byte counters (a `vpshufb` lookup per nibble), widened
/// to `u64` lanes by `vpsadbw` every [`BYTE_WORDS`] patch words.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn conv_avx2(c: &PopcountConv, map: &[u64], hw: (usize, usize), out: &mut [u64]) {
    const HALF: usize = BLOCK / 2;
    let ((oh, ow), stride, blocks) = c.geometry(hw);
    for b in 0..blocks {
        let (wb, lo, hi) = c.block(b);
        for oy in 0..oh {
            for ox in 0..ow {
                let at = oy * stride + ox * c.words;
                let mut word = 0;
                for h in 0..2 {
                    let d = popcounts_avx2(c, wb, h * HALF, &map[at..], stride);
                    let fired = fired_avx2(d, &lo[h * HALF..][..HALF], &hi[h * HALF..][..HALF]);
                    word |= u64::from(fired) << (h * HALF);
                }
                out[(oy * ow + ox) * blocks + b] = word;
            }
        }
    }
}

/// The popcount sums of one output pixel (`map` starts at its patch, map
/// rows `stride` words apart) against rows `first..first + 32` of one
/// block, in eight `ymm` of `u64` lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn popcounts_avx2(
    c: &PopcountConv,
    wb: &[u64],
    first: usize,
    map: &[u64],
    stride: usize,
) -> [__m256i; 8] {
    let run = c.run_len();
    let nibbles = _mm256_set1_epi8(0x0f);
    let table = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, //
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let mut sums = [_mm256_setzero_si256(); 8];
    let mut bytes = [_mm256_setzero_si256(); 8];
    let mut filled = 0;
    for (ky, ws) in wb.chunks_exact(run * BLOCK).enumerate() {
        let xs = &map[ky * stride..][..run];
        for (xs, ws) in xs.chunks(BYTE_WORDS).zip(ws.chunks(BYTE_WORDS * BLOCK)) {
            if filled + xs.len() > BYTE_WORDS {
                widen_avx2(&mut sums, &mut bytes);
                filled = 0;
            }
            filled += xs.len();
            for (&x, wr) in xs.iter().zip(ws.chunks_exact(BLOCK)) {
                let x = _mm256_set1_epi64x(x as i64);
                for (a, chunk) in bytes
                    .iter_mut()
                    .zip(wr[first..][..BLOCK / 2].chunks_exact(4))
                {
                    // SAFETY: `chunk` holds 4 `u64`, exactly the 32 bytes
                    // one unaligned load reads.
                    let v =
                        _mm256_xor_si256(x, unsafe { _mm256_loadu_si256(chunk.as_ptr().cast()) });
                    let low = _mm256_shuffle_epi8(table, _mm256_and_si256(v, nibbles));
                    let high = _mm256_shuffle_epi8(
                        table,
                        _mm256_and_si256(_mm256_srli_epi16::<4>(v), nibbles),
                    );
                    *a = _mm256_add_epi8(*a, _mm256_add_epi8(low, high));
                }
            }
        }
    }
    widen_avx2(&mut sums, &mut bytes);
    sums
}

/// Adds each `u64` lane's eight byte counters into its sum (`vpsadbw`
/// against zero) and clears the counters.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn widen_avx2(sums: &mut [__m256i; 8], bytes: &mut [__m256i; 8]) {
    for (s, b) in sums.iter_mut().zip(bytes) {
        *s = _mm256_add_epi64(*s, _mm256_sad_epu8(*b, _mm256_setzero_si256()));
        *b = _mm256_setzero_si256();
    }
}

/// The 32 output bits of 32 rows' sums: per 4 rows two signed `i64`
/// compares (sums and ranges are below 2⁶³), and `vmovmskpd` gathers
/// the rows where neither `lo > d` nor `d > hi`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn fired_avx2(d: [__m256i; 8], lo: &[u64], hi: &[u64]) -> u32 {
    let mut bits = 0;
    for (v, d) in d.into_iter().enumerate() {
        // SAFETY: `lo` and `hi` hold 32 rows (`conv_avx2`), so each
        // 4-lane slice is in bounds, exactly the 32 bytes one unaligned
        // load reads.
        let (lo, hi) = unsafe {
            (
                _mm256_loadu_si256(lo[4 * v..][..4].as_ptr().cast()),
                _mm256_loadu_si256(hi[4 * v..][..4].as_ptr().cast()),
            )
        };
        let outside = _mm256_or_si256(_mm256_cmpgt_epi64(lo, d), _mm256_cmpgt_epi64(d, hi));
        let mask = _mm256_movemask_pd(_mm256_castsi256_pd(outside)) as u32;
        bits |= (!mask & 0xf) << (4 * v);
    }
    bits
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
            (64, 15, 37),
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

    /// The `u8` convolution read out through ladders on every tier (on
    /// AMX: tiles wherever `k·c` is a multiple of 64 and the output has
    /// more than one pixel) equals the portable lane product plus ladder,
    /// at the tile edges: every output map 1, 2 or 7 tall and 1, 2, 15,
    /// 16, 17, 30 or 33 wide (so positions end inside one narrow tile
    /// pair, mid-pair and on a pair's end) on one 64-byte chunk per tap
    /// (`c = 64` at `k = 3`), those of at most 66 pixels on two and three
    /// (`c` 128 and 192), and a spread of them on 64 at `k = 1`, 32 at
    /// `k = 2`, 16 at `k = 4` and 24 at `k = 3` (which stays on rows);
    /// output rows filling part of a 16-lane
    /// group, a 32-channel tile pair and a 64-row block, levels at 0 and
    /// 255, weights at ±64, and ladders of 1 to 255 bounds (15 held in
    /// registers, the others loaded per pixel) with keys at the `i32`
    /// edges and at sums the map reaches.
    #[test]
    fn every_supported_tier_convolves_u8_levels_exactly() {
        let all: Vec<(usize, usize)> = [1, 2, 15, 16, 17, 30, 33]
            .into_iter()
            .flat_map(|ow| [1, 2, 7].map(|oh| (oh, ow)))
            .collect();
        let small: Vec<_> = all
            .iter()
            .copied()
            .filter(|&(oh, ow)| oh * ow <= 66)
            .collect();
        let spread: Vec<_> = all.iter().copied().step_by(4).collect();
        let mut cases = Vec::new();
        for (c, k, shapes) in [
            (64, 3, &all),
            (128, 3, &small),
            (192, 3, &small),
            (64, 1, &spread),
            (32, 2, &spread),
            (16, 4, &spread),
            (24, 3, &spread),
        ] {
            cases.extend(shapes.iter().map(|&(oh, ow)| (c, k, oh, ow)));
        }
        for (case, &(c, k, oh, ow)) in cases.iter().enumerate() {
            let rows = [40, 70, 16, 130, 33][case % 5];
            let bounds = [15, 3, 1, 7, 255, 12][case % 6];
            let salt = case as u64 * 131;
            let (h, w) = (oh + k - 1, ow + k - 1);
            let weights: Vec<i64> = draw(rows * c * k * k, -64, 64, salt)
                .into_iter()
                .map(i64::from)
                .collect();
            let map: Vec<u8> = draw(h * w * c, 0, 255, salt + 1)
                .into_iter()
                .map(|u| u as u8)
                .collect();
            let lw = LaneWeights::<u8>::new(rows, (c, k * k), &weights).unwrap();
            let (mut patches, mut sums) = (Vec::new(), Vec::new());
            lw.row_sums(Tier::Portable, &map, (c, w, k), 0, &mut patches, &mut sums);
            let keys = draw(rows * bounds, -150_000, 150_000, salt + 2);
            let flips = draw(rows * bounds, 0, 1, salt + 3);
            let ladder: Vec<(i32, bool)> = (0..rows * bounds)
                .map(|i| {
                    let (r, j) = (i / bounds, i % bounds);
                    let key = match i % 7 {
                        0 => sums[(j % ow) * lw.lanes() + r],
                        1 => [i32::MIN, i32::MAX][j % 2],
                        _ => keys[i],
                    };
                    (key, flips[i] == 1)
                })
                .collect();
            let ladder = LaneLadder::new(rows, bounds, &ladder).unwrap();
            let mut want = vec![1; 3];
            let dims = lw.conv_rows(
                Tier::Portable,
                &ladder,
                &map,
                (c, h, w),
                k,
                &mut patches,
                &mut sums,
                &mut want,
            );
            assert_eq!(dims, (rows, oh, ow));
            assert_eq!(want.len(), oh * ow * rows);
            for tier in Tier::supported(Family::Int).into_iter().skip(1) {
                let mut got = vec![1; 5];
                let dims = lw.conv_levels(
                    tier,
                    &ladder,
                    &map,
                    (c, h, w),
                    k,
                    &mut patches,
                    &mut sums,
                    &mut got,
                );
                assert_eq!(dims, (rows, oh, ow));
                assert!(
                    got == want,
                    "{tier:?} c {c} k {k} rows {rows} bounds {bounds} oh {oh} ow {ow}"
                );
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

    /// Deterministic pseudo-random words.
    fn bits(len: usize, salt: u64) -> Vec<u64> {
        (0..len as u64)
            .map(|i| {
                (i ^ salt.rotate_left(17))
                    .wrapping_add(salt)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .rotate_left(29)
                    .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            })
            .collect()
    }

    /// The binary convolution written out: per output pixel and row, the
    /// popcount sum over the `(ky, kx, j)` patch words and the range test.
    fn popcount_reference(
        (rows, words, k): (usize, usize, usize),
        weights: &[u64],
        ranges: &[(u32, u32)],
        map: &[u64],
        (h, w): (usize, usize),
    ) -> Vec<u64> {
        let (oh, ow, blocks) = (h - k + 1, w - k + 1, rows.div_ceil(BLOCK));
        let plen = k * k * words;
        let mut out = vec![0; oh * ow * blocks];
        for oy in 0..oh {
            for ox in 0..ow {
                for (r, &(lo, hi)) in ranges.iter().enumerate() {
                    let mut d = 0;
                    for ky in 0..k {
                        for kx in 0..k {
                            for j in 0..words {
                                let x = map[((oy + ky) * w + ox + kx) * words + j];
                                let wr = weights[r * plen + (ky * k + kx) * words + j];
                                d += (wr ^ x).count_ones();
                            }
                        }
                    }
                    let fired = lo <= d && d <= hi;
                    out[(oy * ow + ox) * blocks + r / BLOCK] |= u64::from(fired) << (r % BLOCK);
                }
            }
        }
        out
    }

    /// Every supported popcount tier equals the portable build and the
    /// written-out convolution at block edges (rows 1, 63, 64, 65, 130),
    /// 1–3 map words per pixel, kernels 1–3 and odd and even output
    /// widths (the AVX-512 build's two-pixel pass and its tail), and on
    /// patches longer than the AVX2 build's [`BYTE_WORDS`] (plen 36
    /// across runs, a 33-word run within one). Ranges cover empty
    /// `(1, 0)`, full `(0, F)` and one-sided ranges at 0 and
    /// `F = 64·plen`, and the maps include all-zero and all-one ones, so
    /// sums reach 0 and `F` on all-zero and all-one weight rows.
    #[test]
    fn every_supported_tier_runs_binary_convolutions_exactly() {
        let mut shapes = vec![(65, 4, 3), (130, 11, 3)];
        for rows in [1, 63, 64, 65, 130] {
            for words in 1..=3 {
                shapes.extend((1..=3).map(|k| (rows, words, k)));
            }
        }
        let mut case = 0u64;
        for (rows, words, k) in shapes {
            let plen = k * k * words;
            let full = (64 * plen) as u32;
            let mut weights = bits(rows * plen, case);
            for (r, row) in weights.chunks_exact_mut(plen).enumerate() {
                match r % 9 {
                    0 => row.fill(0),
                    1 => row.fill(u64::MAX),
                    _ => {}
                }
            }
            let mid = full / 2;
            let spread = (full as f64).sqrt() as u32;
            let ranges: Vec<(u32, u32)> = (0..rows)
                .map(|r| match (r + case as usize) % 8 {
                    0 => (1, 0),
                    1 => (0, full),
                    2 => (0, 0),
                    3 => (full, full),
                    4 => (0, mid - spread + r as u32 % spread),
                    5 => (mid + r as u32 % spread, full),
                    _ => (mid - spread + r as u32 % spread, mid + r as u32 % spread),
                })
                .collect();
            let conv = PopcountConv::new(rows, (words, k), |r, row| {
                row.copy_from_slice(&weights[r * plen..][..plen]);
                ranges[r]
            })
            .unwrap();
            assert_eq!(conv.rows(), rows);
            for (h, w) in [(k, k), (k + 1, k + 2), (k + 2, k + 3)] {
                for style in 0..3 {
                    let mut map = bits(h * w * words, case + 100);
                    match style {
                        0 => map.fill(0),
                        1 => map.fill(u64::MAX),
                        _ => {}
                    }
                    case += 1;
                    let shape = (rows, words, k);
                    let want = popcount_reference(shape, &weights, &ranges, &map, (h, w));
                    let at = format!("rows {rows} words {words} k {k} map {h}×{w}/{style}");
                    let mut definition = vec![0; want.len()];
                    conv_portable(&conv, &map, (h, w), &mut definition);
                    assert_eq!(definition, want, "definition, {at}");
                    for tier in Tier::supported(Family::Popcount) {
                        let mut got = vec![u64::MAX; 3];
                        let dims = conv.run(tier, &map, (h, w), &mut got);
                        assert_eq!(dims, (h - k + 1, w - k + 1), "{tier:?}, {at}");
                        assert_eq!(got, want, "{tier:?}, {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn popcount_conv_rejects_empty_shapes() {
        let row = |_: usize, _: &mut [u64]| (0, 64);
        assert!(PopcountConv::new(1, (1, 1), row).is_ok());
        assert!(PopcountConv::new(0, (1, 1), row).is_err());
        assert!(PopcountConv::new(1, (0, 1), row).is_err());
        assert!(PopcountConv::new(1, (1, 0), row).is_err());
    }

    /// Deterministic floats: mostly finite, some −0.0 and subnormals, and
    /// NaN / ±∞ at a few positions only, so most sums stay finite.
    fn awkward(len: usize, salt: u64) -> Vec<f32> {
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        (0..len as u64)
            .map(|i| {
                let h = (i ^ salt.rotate_left(11))
                    .wrapping_add(salt)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .rotate_left(29);
                match h % 97 {
                    0 if h.is_multiple_of(5) => specials[(h / 97 % 3) as usize],
                    1..=4 => -0.0,
                    5..=8 => -f32::from_bits((h >> 40) as u32 & 0x007f_ffff),
                    _ => ((h >> 40) % 2001) as f32 / 250.0 - 4.0,
                }
            })
            .collect()
    }

    /// Equal bits, or NaN against NaN.
    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// The definition a [`FloatConv`] matches: im2col, `gemm_kernel`
    /// onto a zeroed output, then the bias.
    fn float_conv_reference(
        image: &[f32],
        (c, h, w): (usize, usize, usize),
        geom: ConvGeometry,
        weights: &[f32],
        bias: &[f32],
    ) -> Vec<f32> {
        let mut cols = Vec::new();
        let (fan_in, pixels) =
            crate::conv::im2col_slice_into(image, c, h, w, geom, &mut cols).unwrap();
        let mut out = vec![0.0; bias.len() * pixels];
        crate::linalg::gemm_kernel(bias.len(), fan_in, pixels, weights, &cols, &mut out);
        for (row, &b) in out.chunks_exact_mut(pixels).zip(bias) {
            for v in row {
                *v += b;
            }
        }
        out
    }

    /// Every tier with a channel-lane build equals im2col, `gemm_kernel`
    /// and the bias bit for bit (NaN against NaN): output channels across
    /// the AVX-512 (32) and AVX2 (8) lane blocks up to six blocks, every
    /// `fan_in % 4` (1–4 input channels), kernels 1–5, strides 1–2,
    /// padding 0..k, maps from 1×1 to 16×16 (tiles that span rows and a
    /// last tile that repeats pixels), NaN/±∞/−0.0/subnormals in weights,
    /// bias and image, and all −0.0 images against positive weights and
    /// −0.0 biases (+0.0 only from the `+0.0` start). Each run starts
    /// from a stale scratch buffer and writes into the middle of a larger
    /// one, whose guard floats must stay untouched.
    #[test]
    fn every_supported_tier_runs_float_convolutions_exactly() {
        const ROWS: [usize; 11] = [1, 7, 15, 16, 17, 31, 32, 33, 64, 65, 192];
        const MAPS: [(usize, usize); 7] =
            [(1, 1), (16, 16), (5, 3), (2, 7), (9, 9), (4, 13), (15, 6)];
        const GUARD: usize = 32;
        let tiers: Vec<Tier> = Tier::supported(Family::Gemm)
            .into_iter()
            .filter(|&t| FloatConv::lanes(t).is_some())
            .collect();
        assert_eq!(FloatConv::lanes(Tier::Portable), None);
        let mut case = 0u64;
        for k in 1..=5 {
            for stride in 1..=2 {
                for pad in 0..k {
                    for c in 1..=4 {
                        let geom = ConvGeometry::new(k, stride, pad);
                        let rows = ROWS[case as usize % ROWS.len()];
                        // The case's map, grown until the window fits.
                        let fit = |d: usize| d.max(k.saturating_sub(2 * pad)).max(1);
                        let (mh, mw) = MAPS[case as usize % MAPS.len()];
                        let (h, w) = (fit(mh), fit(mw));
                        let fan_in = c * k * k;
                        let mut weights = awkward(rows * fan_in, case);
                        let mut bias = awkward(rows, case + 1000);
                        let mut image = awkward(c * h * w, case + 2000);
                        if case.is_multiple_of(5) {
                            image.fill(-0.0);
                            for (i, wt) in weights.iter_mut().enumerate() {
                                *wt = 0.25 + (i % 7) as f32;
                            }
                            bias.iter_mut().step_by(2).for_each(|b| *b = -0.0);
                        }
                        let want = float_conv_reference(&image, (c, h, w), geom, &weights, &bias);
                        let at = format!(
                            "rows {rows} c {c} k {k} stride {stride} pad {pad} map {h}×{w}"
                        );
                        for &tier in &tiers {
                            let conv = FloatConv::new(tier, (c, h, w), geom, &weights, &bias)
                                .unwrap_or_else(|e| panic!("{tier:?} {at}: {e}"));
                            assert_eq!(conv.input(), (c, h, w));
                            let n = want.len();
                            let mut padded = vec![7.5; 4 * 24 * 24];
                            let mut out = vec![3.25; GUARD + n + GUARD];
                            // Twice: the second run reuses the first's scratch.
                            for round in 0..2 {
                                conv.run(&image, &mut padded, &mut out[GUARD..GUARD + n]);
                                assert!(
                                    same_bits(&out[GUARD..GUARD + n], &want),
                                    "{tier:?} round {round}, {at}"
                                );
                            }
                            assert!(
                                out[..GUARD]
                                    .iter()
                                    .chain(&out[GUARD + n..])
                                    .all(|&v| v == 3.25),
                                "{tier:?} wrote outside its output, {at}"
                            );
                        }
                        case += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn float_conv_rejects_bad_shapes_and_the_portable_tier() {
        let geom = ConvGeometry::new(3, 1, 0);
        let ok = |tier| FloatConv::new(tier, (2, 4, 4), geom, &[0.5; 3 * 18], &[0.0; 3]);
        assert!(ok(Tier::Portable).is_err());
        let Some(&tier) = Tier::supported(Family::Gemm)
            .iter()
            .find(|&&t| FloatConv::lanes(t).is_some())
        else {
            return;
        };
        assert!(ok(tier).is_ok());
        assert!(FloatConv::new(tier, (2, 4, 4), geom, &[0.5; 3 * 18], &[]).is_err());
        assert!(FloatConv::new(tier, (2, 4, 4), geom, &[0.5; 3 * 17], &[0.0; 3]).is_err());
        assert!(FloatConv::new(tier, (0, 4, 4), geom, &[], &[0.0; 3]).is_err());
        assert!(FloatConv::new(tier, (2, 2, 4), geom, &[0.5; 3 * 18], &[0.0; 3]).is_err());
        let huge = ConvGeometry::new(1, 1, 1 << 15);
        assert!(FloatConv::new(tier, (2, 1, 1), huge, &[0.5; 6], &[0.0; 3]).is_err());
    }

    /// The max pool written out as the scalar reference loop.
    fn max_pool_reference(
        input: &[f32],
        (h, w): (usize, usize),
        (k, s): (usize, usize),
    ) -> Vec<f32> {
        let (oh, ow) = ((h - k) / s + 1, (w - k) / s + 1);
        let mut out = Vec::new();
        for plane in input.chunks_exact(h * w) {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    for ky in 0..k {
                        for kx in 0..k {
                            let v = plane[(oy * s + ky) * w + ox * s + kx];
                            if v > best {
                                best = v;
                            }
                        }
                    }
                    out.push(best);
                }
            }
        }
        out
    }

    /// Every supported tier and the portable build pool exactly as the
    /// scalar loop: windows 1–4 at strides 1–3 (2 and 3 over the paper's
    /// 3×3/2), rows of 1 to 39 outputs (whole and partial 16- and 8-lane
    /// chunks), on awkward values, on NaN/±∞/±0 drawn densely (ties of
    /// +0.0 and −0.0 in both orders, so keeping the last tie fails), and
    /// on all-NaN planes, which pool to −∞.
    #[test]
    fn every_supported_tier_pools_exactly() {
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1.5,
            -1.5,
        ];
        let shapes = [
            (32, 32, 3, 2),
            (15, 15, 3, 2),
            (4, 4, 2, 2),
            (5, 34, 3, 2),
            (7, 40, 2, 1),
            (9, 35, 3, 1),
            (3, 70, 1, 2),
            (8, 8, 4, 3),
            (6, 66, 2, 2),
            (1, 1, 1, 1),
            (2, 17, 2, 1),
        ];
        for (case, &(h, w, k, s)) in shapes.iter().enumerate() {
            for style in 0..3 {
                let len = 3 * h * w;
                let input: Vec<f32> = match style {
                    0 => awkward(len, case as u64),
                    1 => awkward(len, 50 + case as u64)
                        .iter()
                        .map(|v| specials[(v.to_bits() % 7) as usize])
                        .collect(),
                    _ => (0..len)
                        .map(|i| {
                            if i < h * w {
                                f32::NAN
                            } else {
                                specials[i % 5 + 2]
                            }
                        })
                        .collect(),
                };
                let want = max_pool_reference(&input, (h, w), (k, s));
                let at = format!("{h}×{w} window {k} stride {s} style {style}");
                let mut definition = vec![7.0; want.len()];
                let oh_ow = ((h - k) / s + 1, (w - k) / s + 1);
                max_pool_portable(&input, ((h, w), (k, s), oh_ow), &mut definition);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&definition), bits(&want), "definition, {at}");
                for tier in Tier::supported(Family::Gemm) {
                    let mut got = vec![7.0; want.len()];
                    max_pool(tier, &input, (h, w), (k, s), &mut got);
                    assert_eq!(bits(&got), bits(&want), "{tier:?}, {at}");
                }
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
