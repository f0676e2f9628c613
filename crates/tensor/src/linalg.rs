//! Dense linear algebra over [`Tensor`] matrices.
//!
//! The workhorse is [`matmul`], a cache-blocked row-major GEMM used to lower
//! convolutions (via [`crate::conv::im2col`]) and fully-connected layers.
//! [`matmul_transpose_a`] / [`matmul_transpose_b`] cover the two transposed
//! products backpropagation needs without materialising transposed copies.
//!
//! Every product also has an `_into` variant that writes into a reusable
//! caller-owned buffer (see [`crate::Workspace`]) so hot inference loops can
//! run without per-call allocations, and [`gemm`] adds `a × b` onto a
//! caller's slice, for outputs laid out by the caller.
//!
//! All kernels propagate non-finite values: `0 × NaN = NaN` and
//! `0 × ∞ = NaN` reach the output instead of being skipped, so upstream
//! numerical blowups surface instead of being masked by zero weights.
//!
//! # SIMD tiers of `matmul`
//!
//! On x86-64 CPUs with AVX-512F or AVX2, [`gemm`] (and [`matmul`] /
//! [`matmul_into`] through it) runs a packed, register-tiled kernel
//! compiled for that extension by [`crate::simd`] and picked at run time;
//! everywhere else it runs the portable blocked kernel. Both add
//! every output element's products in the same order, so the tiers are
//! bit-identical.

use crate::simd::{self, Family, Tier};
use crate::{Shape, ShapeError, Tensor};

/// Cache-blocking tile edge, tuned for 32 KiB L1 caches.
const BLOCK: usize = 64;

fn expect_matrix(t: &Tensor, op: &str, name: &str) -> Result<(usize, usize), ShapeError> {
    if t.shape().rank() != 2 {
        return Err(ShapeError::new(
            op,
            format!("{name} must be a matrix, got {}", t.shape()),
        ));
    }
    Ok((t.shape().dim(0), t.shape().dim(1)))
}

/// Core GEMM micro-kernel: `out[i][j] += sum_k a[i][k] * b[k][j]`.
///
/// Blocked over `m` and `k`, with the `k` loop unrolled by four so each
/// pass over an output row folds four rank-1 updates into one. `out` must
/// already be zeroed (or hold a partial sum to accumulate onto).
pub(crate) fn gemm_kernel(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for i0 in (0..m).step_by(BLOCK) {
        let i1 = (i0 + BLOCK).min(m);
        for k0 in (0..k).step_by(BLOCK) {
            let k1 = (k0 + BLOCK).min(k);
            for i in i0..i1 {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[i * n..(i + 1) * n];
                let mut kk = k0;
                while kk + 4 <= k1 {
                    let (a0, a1, a2, a3) = (arow[kk], arow[kk + 1], arow[kk + 2], arow[kk + 3]);
                    let b0 = &b[kk * n..(kk + 1) * n];
                    let b1 = &b[(kk + 1) * n..(kk + 2) * n];
                    let b2 = &b[(kk + 2) * n..(kk + 3) * n];
                    let b3 = &b[(kk + 3) * n..(kk + 4) * n];
                    for (j, o) in orow.iter_mut().enumerate() {
                        *o += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                    }
                    kk += 4;
                }
                for kr in kk..k1 {
                    let aik = arow[kr];
                    let brow = &b[kr * n..(kr + 1) * n];
                    for (o, &bkj) in orow.iter_mut().zip(brow) {
                        *o += aik * bkj;
                    }
                }
            }
        }
    }
}

/// The packed, register-tiled GEMM behind the AVX2 and AVX-512F tiers,
/// which `crate::simd` compiles for each extension.
#[cfg(target_arch = "x86_64")]
pub(crate) mod packed {
    /// Rows of `out` one packed tile holds in registers.
    const MR: usize = 4;

    /// Depth of one packed k-block. A multiple of four, so every k-block but
    /// the last holds whole groups of four and the `k % 4` tail stays last.
    const KC: usize = 256;

    /// Packed GEMM: `out[i][j] += sum_k a[i][k] * b[k][j]`, bit-identical to
    /// [`gemm_kernel`](super::gemm_kernel).
    ///
    /// `k` is cut into `KC`-deep blocks. Per block, `a` is packed into
    /// row panels `[kc][rows]` (`MR` rows, then the `m % MR` tail), and each
    /// `NR`-wide column panel of `b` into `[kc][NR]` with columns past `n`
    /// zero (`NR` is 32 lanes, two `zmm`, under AVX-512F and 24, three
    /// `ymm`, under AVX2). A tile of `out` is loaded into registers, updated over the
    /// whole block and stored back. Per element this is [`gemm_kernel`](super::gemm_kernel)'s
    /// sequence: `acc + (((a0·b0 + a1·b1) + a2·b2) + a3·b3)` for each group
    /// of four `k` in order, then `acc + a·b` for the `k % 4` tail; storing
    /// and reloading an `f32` between blocks is exact, and `NR` only sets
    /// how many columns run side by side. Zero columns past `n` are never
    /// stored, so their `0·NaN` lanes cannot reach `out`. Scratch is
    /// `KC·(m + NR)` floats.
    #[inline(always)]
    pub(crate) fn packed_gemm<const NR: usize>(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        let kc_max = k.min(KC);
        let mut apack = vec![0.0f32; kc_max * m];
        let mut bpack = vec![0.0f32; kc_max * NR];
        for k0 in (0..k).step_by(KC) {
            let kc = (k - k0).min(KC);
            // Row panel starting at row i0 occupies apack[i0·kc..(i0+rows)·kc].
            for i0 in (0..m).step_by(MR) {
                let rows = (m - i0).min(MR);
                let panel = &mut apack[i0 * kc..(i0 + rows) * kc];
                for (r, arow) in a[i0 * k..(i0 + rows) * k].chunks_exact(k).enumerate() {
                    for (kk, &v) in arow[k0..k0 + kc].iter().enumerate() {
                        panel[kk * rows + r] = v;
                    }
                }
            }
            for j0 in (0..n).step_by(NR) {
                let cols = (n - j0).min(NR);
                let bpanel = &mut bpack[..kc * NR];
                for (kk, dst) in bpanel.chunks_exact_mut(NR).enumerate() {
                    let src = &b[(k0 + kk) * n + j0..][..cols];
                    dst[..cols].copy_from_slice(src);
                    dst[cols..].fill(0.0);
                }
                let bpanel = &bpack[..kc * NR];
                for i0 in (0..m).step_by(MR) {
                    let rows = (m - i0).min(MR);
                    let apanel = &apack[i0 * kc..(i0 + rows) * kc];
                    let tile = &mut out[i0 * n + j0..];
                    match rows {
                        4 => tile_update::<4, NR>(apanel, bpanel, tile, n, cols),
                        3 => tile_update::<3, NR>(apanel, bpanel, tile, n, cols),
                        2 => tile_update::<2, NR>(apanel, bpanel, tile, n, cols),
                        _ => tile_update::<1, NR>(apanel, bpanel, tile, n, cols),
                    }
                }
            }
        }
    }

    /// One `R`-row tile of `out` over one k-block, `cols ≤ NR` columns wide,
    /// rows `n` apart in `tile`. A narrow edge tile runs on a zero-padded
    /// copy whose extra columns are never stored back.
    #[inline(always)]
    fn tile_update<const R: usize, const NR: usize>(
        apanel: &[f32],
        bpanel: &[f32],
        tile: &mut [f32],
        n: usize,
        cols: usize,
    ) {
        if cols == NR {
            full_tile::<R, NR>(apanel, bpanel, tile, n);
            return;
        }
        let mut edge = [[0.0f32; NR]; R];
        for (r, row) in edge.iter_mut().enumerate() {
            row[..cols].copy_from_slice(&tile[r * n..][..cols]);
        }
        full_tile::<R, NR>(apanel, bpanel, edge.as_flattened_mut(), NR);
        for (r, row) in edge.iter().enumerate() {
            tile[r * n..][..cols].copy_from_slice(&row[..cols]);
        }
    }

    /// The register tile: loads `R × NR` of `out` (rows `ld` apart), adds one
    /// k-block's products in [`gemm_kernel`](super::gemm_kernel)'s order, and stores it back.
    /// Only fixed-size copies touch `acc`, so it stays in registers.
    #[inline(always)]
    fn full_tile<const R: usize, const NR: usize>(
        apanel: &[f32],
        bpanel: &[f32],
        tile: &mut [f32],
        ld: usize,
    ) {
        let mut acc = [[0.0f32; NR]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            *row = tile[r * ld..][..NR]
                .try_into()
                .expect("tile rows hold NR columns");
        }
        let mut a4 = apanel.chunks_exact(4 * R);
        let mut b4 = bpanel.chunks_exact(4 * NR);
        for (aq, bq) in (&mut a4).zip(&mut b4) {
            let (b0, rest) = bq.split_at(NR);
            let (b1, rest) = rest.split_at(NR);
            let (b2, b3) = rest.split_at(NR);
            let b0: &[f32; NR] = b0.try_into().expect("panel rows are NR wide");
            let b1: &[f32; NR] = b1.try_into().expect("panel rows are NR wide");
            let b2: &[f32; NR] = b2.try_into().expect("panel rows are NR wide");
            let b3: &[f32; NR] = b3.try_into().expect("panel rows are NR wide");
            for (r, row) in acc.iter_mut().enumerate() {
                let (a0, a1, a2, a3) = (aq[r], aq[R + r], aq[2 * R + r], aq[3 * R + r]);
                for (j, o) in row.iter_mut().enumerate() {
                    *o += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                }
            }
        }
        let tail = a4
            .remainder()
            .chunks_exact(R)
            .zip(b4.remainder().chunks_exact(NR));
        for (a1, b1) in tail {
            let b1: &[f32; NR] = b1.try_into().expect("panel rows are NR wide");
            for (row, &aik) in acc.iter_mut().zip(a1) {
                for (o, &bkj) in row.iter_mut().zip(b1) {
                    *o += aik * bkj;
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            tile[r * ld..][..NR].copy_from_slice(row);
        }
    }
}

/// `aᵀ × b` micro-kernel: `out[i][j] += sum_k a[k][i] * b[k][j]`.
///
/// Mirrors [`gemm_kernel`]'s blocking and unroll grouping exactly, so the
/// result is bit-identical to `gemm_kernel` run on a materialised `aᵀ`.
fn gemm_ta_kernel(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for i0 in (0..m).step_by(BLOCK) {
        let i1 = (i0 + BLOCK).min(m);
        for k0 in (0..k).step_by(BLOCK) {
            let k1 = (k0 + BLOCK).min(k);
            for i in i0..i1 {
                let orow = &mut out[i * n..(i + 1) * n];
                let mut kk = k0;
                while kk + 4 <= k1 {
                    let a0 = a[kk * m + i];
                    let a1 = a[(kk + 1) * m + i];
                    let a2 = a[(kk + 2) * m + i];
                    let a3 = a[(kk + 3) * m + i];
                    let b0 = &b[kk * n..(kk + 1) * n];
                    let b1 = &b[(kk + 1) * n..(kk + 2) * n];
                    let b2 = &b[(kk + 2) * n..(kk + 3) * n];
                    let b3 = &b[(kk + 3) * n..(kk + 4) * n];
                    for (j, o) in orow.iter_mut().enumerate() {
                        *o += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                    }
                    kk += 4;
                }
                for kr in kk..k1 {
                    let aki = a[kr * m + i];
                    let brow = &b[kr * n..(kr + 1) * n];
                    for (o, &bkj) in orow.iter_mut().zip(brow) {
                        *o += aki * bkj;
                    }
                }
            }
        }
    }
}

/// `a × bᵀ` micro-kernel: `out[i][j] = dot(a_row_i, b_row_j)`.
///
/// Both operands are walked along contiguous rows; the dot is split over
/// four accumulators to break the serial FP dependency chain.
fn gemm_tb_kernel(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc0 = 0.0f32;
            let mut acc1 = 0.0f32;
            let mut acc2 = 0.0f32;
            let mut acc3 = 0.0f32;
            let mut kk = 0;
            while kk + 4 <= k {
                acc0 += arow[kk] * brow[kk];
                acc1 += arow[kk + 1] * brow[kk + 1];
                acc2 += arow[kk + 2] * brow[kk + 2];
                acc3 += arow[kk + 3] * brow[kk + 3];
                kk += 4;
            }
            let mut acc = (acc0 + acc1) + (acc2 + acc3);
            for kr in kk..k {
                acc += arow[kr] * brow[kr];
            }
            *o += acc;
        }
    }
}

fn check_inner(op: &str, what: &str, ka: usize, kb: usize) -> Result<(), ShapeError> {
    if ka != kb {
        return Err(ShapeError::new(op, format!("{what} differ: {ka} vs {kb}")));
    }
    Ok(())
}

/// Zero-fills `out` to exactly `len` elements, reusing its capacity.
fn reset(out: &mut Vec<f32>, len: usize) {
    out.clear();
    out.resize(len, 0.0);
}

/// `out += a × b` over row-major slices: `a` is `m×k`, `b` is `k×n` and
/// `out` is `m×n`.
///
/// The slice-level entry into the tiered GEMM behind [`matmul_into`],
/// for a caller that owns its output layout: `Conv2d` inference
/// multiplies each image's weights × patches straight into that image's
/// slice of the NCHW output. The products are added onto `out`'s
/// contents in the order every tier keeps, so a zeroed `out` receives
/// exactly [`matmul`]'s result.
///
/// # Errors
///
/// Returns [`ShapeError`] if a slice's length is not the product of its
/// dimensions.
pub fn gemm(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) -> Result<(), ShapeError> {
    for (name, len, rows, cols) in [
        ("a", a.len(), m, k),
        ("b", b.len(), k, n),
        ("out", out.len(), m, n),
    ] {
        if rows.checked_mul(cols) != Some(len) {
            return Err(ShapeError::new(
                "gemm",
                format!("{name} must hold {rows}×{cols} elements, got {len}"),
            ));
        }
    }
    simd::gemm(Tier::detected(Family::Gemm), m, k, n, a, b, out);
    Ok(())
}

/// Matrix product `a × b` written into a reusable buffer.
///
/// `out` is cleared and resized to `m × n`; its existing capacity is
/// reused, so repeated calls with the same buffer do not allocate.
/// Returns the `(rows, cols)` of the product.
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-2 or the inner
/// dimensions disagree.
pub fn matmul_into(
    a: &Tensor,
    b: &Tensor,
    out: &mut Vec<f32>,
) -> Result<(usize, usize), ShapeError> {
    let (m, ka) = expect_matrix(a, "matmul", "a")?;
    let (kb, n) = expect_matrix(b, "matmul", "b")?;
    check_inner("matmul", "inner dimensions", ka, kb)?;
    reset(out, m * n);
    gemm(m, ka, n, a.as_slice(), b.as_slice(), out)?;
    Ok((m, n))
}

/// Matrix product `a × b` for row-major matrices.
///
/// Uses i-k-j loop order with cache blocking and a four-way unrolled
/// inner update, which vectorises well on the innermost contiguous axis.
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-2 or the inner
/// dimensions disagree.
///
/// # Example
///
/// ```
/// use mp_tensor::{linalg, Shape, Tensor};
///
/// # fn main() -> Result<(), mp_tensor::ShapeError> {
/// let identity = Tensor::from_vec(Shape::matrix(2, 2), vec![1., 0., 0., 1.])?;
/// let m = Tensor::from_vec(Shape::matrix(2, 2), vec![1., 2., 3., 4.])?;
/// assert_eq!(linalg::matmul(&identity, &m)?, m);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    let mut out = Vec::new();
    let (m, n) = matmul_into(a, b, &mut out)?;
    Tensor::from_vec(Shape::matrix(m, n), out)
}

/// Matrix product `aᵀ × b` written into a reusable buffer.
///
/// Same buffer contract as [`matmul_into`]. Bit-identical to
/// `matmul_into(transpose(a), b, out)`.
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-2 or the row counts
/// of `a` and `b` disagree.
pub fn matmul_transpose_a_into(
    a: &Tensor,
    b: &Tensor,
    out: &mut Vec<f32>,
) -> Result<(usize, usize), ShapeError> {
    let (ka, m) = expect_matrix(a, "matmul_transpose_a", "a")?;
    let (kb, n) = expect_matrix(b, "matmul_transpose_a", "b")?;
    check_inner("matmul_transpose_a", "row counts", ka, kb)?;
    reset(out, m * n);
    gemm_ta_kernel(ka, m, n, a.as_slice(), b.as_slice(), out);
    Ok((m, n))
}

/// Matrix product `aᵀ × b` without materialising `aᵀ`.
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-2 or the row counts
/// of `a` and `b` disagree.
pub fn matmul_transpose_a(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    let mut out = Vec::new();
    let (m, n) = matmul_transpose_a_into(a, b, &mut out)?;
    Tensor::from_vec(Shape::matrix(m, n), out)
}

/// Matrix product `a × bᵀ` written into a reusable buffer.
///
/// Same buffer contract as [`matmul_into`].
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-2 or the column
/// counts of `a` and `b` disagree.
pub fn matmul_transpose_b_into(
    a: &Tensor,
    b: &Tensor,
    out: &mut Vec<f32>,
) -> Result<(usize, usize), ShapeError> {
    let (m, ka) = expect_matrix(a, "matmul_transpose_b", "a")?;
    let (n, kb) = expect_matrix(b, "matmul_transpose_b", "b")?;
    check_inner("matmul_transpose_b", "column counts", ka, kb)?;
    reset(out, m * n);
    gemm_tb_kernel(m, ka, n, a.as_slice(), b.as_slice(), out);
    Ok((m, n))
}

/// Matrix product `a × bᵀ` without materialising `bᵀ`.
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-2 or the column
/// counts of `a` and `b` disagree.
pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    let mut out = Vec::new();
    let (m, n) = matmul_transpose_b_into(a, b, &mut out)?;
    Tensor::from_vec(Shape::matrix(m, n), out)
}

/// Matrix–vector product `a × x`.
///
/// # Errors
///
/// Returns [`ShapeError`] if `a` is not a matrix, `x` is not a vector, or
/// the dimensions disagree.
pub fn matvec(a: &Tensor, x: &Tensor) -> Result<Tensor, ShapeError> {
    let (m, k) = expect_matrix(a, "matvec", "a")?;
    if x.shape().rank() != 1 || x.shape().dim(0) != k {
        return Err(ShapeError::new(
            "matvec",
            format!("expected vector of length {k}, got {}", x.shape()),
        ));
    }
    let av = a.as_slice();
    let xv = x.as_slice();
    let mut out = vec![0.0f32; m];
    for (i, o) in out.iter_mut().enumerate() {
        let row = &av[i * k..(i + 1) * k];
        let mut acc = 0.0;
        for (&r, &v) in row.iter().zip(xv) {
            acc += r * v;
        }
        *o = acc;
    }
    Tensor::from_vec(Shape::vector(m), out)
}

/// Returns the transpose of a rank-2 tensor.
///
/// # Errors
///
/// Returns [`ShapeError`] if `a` is not rank-2.
pub fn transpose(a: &Tensor) -> Result<Tensor, ShapeError> {
    let (m, n) = expect_matrix(a, "transpose", "a")?;
    let av = a.as_slice();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = av[i * n + j];
        }
    }
    Tensor::from_vec(Shape::matrix(n, m), out)
}

/// Dot product of two equal-length vectors.
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-1 or lengths differ.
pub fn dot(a: &Tensor, b: &Tensor) -> Result<f32, ShapeError> {
    if a.shape().rank() != 1 || b.shape().rank() != 1 || a.len() != b.len() {
        return Err(ShapeError::new(
            "dot",
            format!(
                "expected equal-length vectors, got {} and {}",
                a.shape(),
                b.shape()
            ),
        ));
    }
    Ok(a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum())
}

/// Naive triple-loop reference GEMM, kept for testing the blocked kernel.
///
/// # Errors
///
/// Returns [`ShapeError`] under the same conditions as [`matmul`].
pub fn matmul_reference(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    let (m, ka) = expect_matrix(a, "matmul_reference", "a")?;
    let (kb, n) = expect_matrix(b, "matmul_reference", "b")?;
    if ka != kb {
        return Err(ShapeError::new(
            "matmul_reference",
            format!("inner dimensions differ: {ka} vs {kb}"),
        ));
    }
    let mut out = Tensor::zeros(Shape::matrix(m, n));
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..ka {
                acc += a.as_slice()[i * ka + k] * b.as_slice()[k * n + j];
            }
            out.as_mut_slice()[i * n + j] = acc;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(shape: [usize; 2]) -> Tensor {
        Tensor::from_fn(shape, |i| (i as f32) * 0.37 - 2.0)
    }

    #[test]
    fn matmul_matches_reference_on_odd_sizes() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (7, 13, 11), (65, 70, 67)] {
            let a = seq([m, k]);
            let b = seq([k, n]);
            let fast = matmul(&a, &b).unwrap();
            let slow = matmul_reference(&a, &b).unwrap();
            for (x, y) in fast.iter().zip(slow.iter()) {
                // Mixed tolerance: the unrolled kernel groups partial sums
                // differently from the naive loop, so large magnitudes can
                // differ in the last f32 ulp (|y|·2⁻²³ ≈ 0.1 at 9e5).
                let tol = 1e-3 + y.abs() * 1e-6;
                assert!((x - y).abs() < tol, "mismatch {x} vs {y} at ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn matmul_rejects_mismatched_inner_dims() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul(&a, &Tensor::zeros([3])).is_err());
    }

    #[test]
    fn transpose_products_match_explicit_transpose() {
        let a = seq([4, 6]);
        let b = seq([4, 5]);
        let at = transpose(&a).unwrap();
        let want = matmul(&at, &b).unwrap();
        let got = matmul_transpose_a(&a, &b).unwrap();
        assert_eq!(got, want);

        let c = seq([3, 6]);
        let ct = transpose(&c).unwrap();
        let want2 = matmul(&a, &ct).unwrap();
        let got2 = matmul_transpose_b(&a, &c).unwrap();
        for (x, y) in got2.iter().zip(want2.iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn transpose_a_is_bit_identical_to_explicit_transpose_across_block_edges() {
        // The unroll grouping in gemm_ta_kernel must mirror gemm_kernel so
        // reordered summation cannot introduce drift between the two paths.
        for (k, m, n) in [(5, 7, 3), (64, 65, 9), (130, 66, 4)] {
            let a = seq([k, m]);
            let b = seq([k, n]);
            let want = matmul(&transpose(&a).unwrap(), &b).unwrap();
            let got = matmul_transpose_a(&a, &b).unwrap();
            assert_eq!(got.as_slice(), want.as_slice(), "({k},{m},{n})");
        }
    }

    /// Deterministic entries: mostly finite, some `-0.0` and subnormals,
    /// and NaN / ±∞ at a few positions only, so most outputs stay finite.
    fn awkward(len: usize, salt: u64) -> Vec<f32> {
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        (0..len as u64)
            .map(|i| {
                let h = (i ^ salt)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .rotate_left(29);
                match h % 97 {
                    0 if h.is_multiple_of(13) => specials[(h / 97 % 3) as usize],
                    1..=4 => -0.0,
                    5..=8 => -f32::from_bits((h >> 40) as u32 & 0x007f_ffff),
                    _ => ((h >> 40) % 2001) as f32 / 250.0 - 4.0,
                }
            })
            .collect()
    }

    #[test]
    fn every_supported_tier_matches_the_portable_kernel_bit_for_bit() {
        // Shapes cross the row tile (MR = 4), both column tiles (24, 32),
        // the k-block (KC = 256) and every `k % 4` tail.
        let shapes = [
            (1, 1, 1),
            (3, 5, 23),
            (4, 4, 24),
            (5, 7, 25),
            (7, 255, 31),
            (8, 256, 32),
            (9, 257, 33),
            (6, 258, 49),
            (11, 259, 64),
            (13, 515, 70),
            (2, 600, 97),
        ];
        for (case, &(m, k, n)) in shapes.iter().enumerate() {
            let mut a = awkward(m * k, 17 + case as u64);
            let b = awkward(k * n, 91 + case as u64);
            // An all -0.0 row must still sum to +0.0 from the zeroed out.
            a[..k].fill(-0.0);
            let mut want = vec![0.0; m * n];
            gemm_kernel(m, k, n, &a, &b, &mut want);
            for tier in Tier::supported(Family::Gemm) {
                let mut got = vec![0.0; m * n];
                simd::gemm(tier, m, k, n, &a, &b, &mut got);
                for (idx, (x, y)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                        "{tier:?} ({m},{k},{n}) at {idx}: {x:e} vs {y:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_adds_onto_a_slice_and_checks_lengths() {
        // Small integers, so every sum below is exact.
        let a = Tensor::from_fn([3, 5], |i| (i % 7) as f32 - 3.0);
        let b = Tensor::from_fn([5, 4], |i| (i % 5) as f32 - 2.0);
        let want = matmul(&a, &b).unwrap();
        // The product lands in the middle of a larger buffer, as one
        // image's slice of a batch output does.
        let mut buf = [0.0f32; 20];
        gemm(3, 5, 4, a.as_slice(), b.as_slice(), &mut buf[4..16]).unwrap();
        assert_eq!(&buf[4..16], want.as_slice());
        assert!(buf[..4].iter().chain(&buf[16..]).all(|&v| v == 0.0));
        // A second call accumulates.
        gemm(3, 5, 4, a.as_slice(), b.as_slice(), &mut buf[4..16]).unwrap();
        for (x, y) in buf[4..16].iter().zip(want.iter()) {
            assert_eq!(*x, y + y);
        }
        let err = gemm(3, 5, 4, &a.as_slice()[1..], b.as_slice(), &mut buf[4..16]).unwrap_err();
        assert!(err.to_string().contains("a must hold 3×5"), "{err}");
        assert!(gemm(3, 5, 4, a.as_slice(), &b.as_slice()[1..], &mut buf[4..16]).is_err());
        assert!(gemm(3, 5, 4, a.as_slice(), b.as_slice(), &mut buf[4..15]).is_err());
        assert!(gemm(usize::MAX, 2, 1, &[], &[0.0; 2], &mut []).is_err());
        gemm(0, 5, 4, &[], b.as_slice(), &mut []).unwrap();
    }

    #[test]
    fn transpose_is_involution() {
        let a = seq([3, 7]);
        assert_eq!(transpose(&transpose(&a).unwrap()).unwrap(), a);
    }

    #[test]
    fn matvec_matches_matmul_column() {
        let a = seq([4, 3]);
        let x = Tensor::from_vec([3], vec![1.0, -1.0, 2.0]).unwrap();
        let xm = x.reshape([3, 1]).unwrap();
        let via_matmul = matmul(&a, &xm).unwrap();
        let via_matvec = matvec(&a, &x).unwrap();
        assert_eq!(via_matvec.as_slice(), via_matmul.as_slice());
        assert!(matvec(&a, &Tensor::zeros([4])).is_err());
    }

    #[test]
    fn dot_basic() {
        let a = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec([3], vec![4.0, 5.0, 6.0]).unwrap();
        assert_eq!(dot(&a, &b).unwrap(), 32.0);
        assert!(dot(&a, &Tensor::zeros([2])).is_err());
    }

    #[test]
    fn identity_is_neutral() {
        let n = 5;
        let eye = Tensor::from_fn([n, n], |i| if i / n == i % n { 1.0 } else { 0.0 });
        let a = seq([n, n]);
        assert_eq!(matmul(&eye, &a).unwrap(), a);
        assert_eq!(matmul(&a, &eye).unwrap(), a);
    }

    #[test]
    fn into_variants_reuse_buffers_and_match_allocating_paths() {
        let a = seq([5, 9]);
        let b = seq([9, 7]);
        let mut buf = Vec::new();
        let (m, n) = matmul_into(&a, &b, &mut buf).unwrap();
        assert_eq!((m, n), (5, 7));
        assert_eq!(buf.as_slice(), matmul(&a, &b).unwrap().as_slice());
        let cap = buf.capacity();

        // Smaller product into the same buffer: no reallocation.
        let c = seq([3, 9]);
        matmul_into(&c, &b, &mut buf).unwrap();
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.as_slice(), matmul(&c, &b).unwrap().as_slice());

        let ta = seq([9, 5]);
        matmul_transpose_a_into(&ta, &b, &mut buf).unwrap();
        assert_eq!(
            buf.as_slice(),
            matmul_transpose_a(&ta, &b).unwrap().as_slice()
        );

        let tb = seq([7, 9]);
        matmul_transpose_b_into(&a, &tb, &mut buf).unwrap();
        assert_eq!(
            buf.as_slice(),
            matmul_transpose_b(&a, &tb).unwrap().as_slice()
        );
    }

    #[test]
    fn matmul_propagates_nan_through_zero_weights() {
        // Regression: the old kernel skipped a[i][k] == 0.0, so a zero
        // weight silently swallowed a NaN/inf activation.
        let a = Tensor::from_vec([1, 2], vec![0.0, 1.0]).unwrap();
        let b = Tensor::from_vec([2, 2], vec![f32::NAN, f32::INFINITY, 1.0, 2.0]).unwrap();
        let y = matmul(&a, &b).unwrap();
        assert!(y.as_slice()[0].is_nan(), "0 × NaN must propagate");
        assert!(
            y.as_slice()[1].is_nan(),
            "0 × ∞ must propagate (inf + finite stays NaN-free, 0·∞ = NaN)"
        );
    }

    #[test]
    fn matmul_transpose_a_propagates_nan_through_zero_weights() {
        let a = Tensor::from_vec([2, 1], vec![0.0, 1.0]).unwrap();
        let b = Tensor::from_vec([2, 2], vec![f32::NAN, f32::INFINITY, 1.0, 2.0]).unwrap();
        let y = matmul_transpose_a(&a, &b).unwrap();
        assert!(y.as_slice()[0].is_nan());
        assert!(y.as_slice()[1].is_nan());
    }

    #[test]
    fn matmul_transpose_b_propagates_nan_through_zero_weights() {
        let a = Tensor::from_vec([1, 2], vec![0.0, 1.0]).unwrap();
        let b = Tensor::from_vec([1, 2], vec![f32::NAN, 1.0]).unwrap();
        let y = matmul_transpose_b(&a, &b).unwrap();
        assert!(y.as_slice()[0].is_nan());
    }

    #[test]
    fn nan_rows_stay_nan_across_all_variants() {
        let a = Tensor::from_fn([3, 4], |i| if i < 4 { f32::NAN } else { 1.0 });
        let b = seq([4, 5]);
        let y = matmul(&a, &b).unwrap();
        assert!(y.as_slice()[..5].iter().all(|v| v.is_nan()));
        assert!(y.as_slice()[5..].iter().all(|v| v.is_finite()));

        let bt = seq([5, 4]);
        let yt = matmul_transpose_b(&a, &bt).unwrap();
        assert!(yt.as_slice()[..5].iter().all(|v| v.is_nan()));
        assert!(yt.as_slice()[5..].iter().all(|v| v.is_finite()));
    }
}
