//! Convolution lowering: `im2col` / `col2im`.
//!
//! FINN (and this reproduction's float engine) computes convolutions as
//! matrix–matrix products by unrolling input patches into columns, the
//! approach of Chellapilla et al. that the paper cites as \[7\]. The forward
//! lowering is [`im2col`]; its adjoint, used by backpropagation to scatter
//! column gradients back into image space, is [`col2im`].

use serde::{Deserialize, Serialize};

use crate::{Shape, ShapeError, Tensor};

/// Spatial geometry of a 2-D convolution or pooling window.
///
/// # Example
///
/// ```
/// use mp_tensor::conv::ConvGeometry;
///
/// // A 3×3 valid convolution over a 32×32 input, as in the paper's FINN
/// // network (no zero padding).
/// let g = ConvGeometry::new(3, 1, 0);
/// assert_eq!(g.output_dim(32), 30);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvGeometry {
    /// Square kernel edge `K`.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding added on every border.
    pub padding: usize,
}

impl ConvGeometry {
    /// Creates a geometry with a square `kernel`, `stride` and `padding`.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        Self {
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial extent for an input extent of `input`.
    ///
    /// Returns 0 when the window does not fit, including when
    /// `input + 2·padding` would overflow `usize` — absurd padding must
    /// not wrap around and report a bogus (tiny) output size in release
    /// builds.
    pub fn output_dim(&self, input: usize) -> usize {
        let padded = match self
            .padding
            .checked_mul(2)
            .and_then(|both| input.checked_add(both))
        {
            Some(padded) => padded,
            None => return 0,
        };
        if padded < self.kernel {
            0
        } else {
            (padded - self.kernel) / self.stride + 1
        }
    }
}

/// Unrolls a `[1, C, H, W]` image into a patch matrix.
///
/// The result has shape `[C·K·K, OH·OW]`: column `o` holds the receptive
/// field of output pixel `o`, ordered channel-major then row-major within
/// the kernel window. A weight matrix of shape `[OD, C·K·K]` multiplied by
/// this matrix yields the `[OD, OH·OW]` convolution output.
///
/// # Errors
///
/// Returns [`ShapeError`] if `image` is not a `[1, C, H, W]` tensor or the
/// window does not fit the padded input.
pub fn im2col(image: &Tensor, geom: ConvGeometry) -> Result<Tensor, ShapeError> {
    let mut out = Vec::new();
    let (rows, cols) = im2col_into(image, geom, &mut out)?;
    Tensor::from_vec(Shape::matrix(rows, cols), out)
}

/// [`im2col`] writing into a reusable caller-owned buffer.
///
/// `out` is cleared and resized to `C·K·K × OH·OW`, reusing its existing
/// capacity; returns the `(rows, cols)` of the patch matrix.
///
/// # Errors
///
/// Returns [`ShapeError`] under the same conditions as [`im2col`].
pub fn im2col_into(
    image: &Tensor,
    geom: ConvGeometry,
    out: &mut Vec<f32>,
) -> Result<(usize, usize), ShapeError> {
    let shape = image.shape();
    if shape.rank() != 4 || shape.dim(0) != 1 {
        return Err(ShapeError::new(
            "im2col",
            format!("expected [1,C,H,W] image, got {shape}"),
        ));
    }
    let (c, h, w) = (shape.dim(1), shape.dim(2), shape.dim(3));
    im2col_slice_into(image.as_slice(), c, h, w, geom, out)
}

/// [`im2col`] over a raw `C·H·W` plane slice, writing into a reusable
/// buffer.
///
/// One image of an NCHW batch can be lowered directly from its slice of
/// the batch tensor, without first materialising a `[1, C, H, W]` copy.
/// Row `(ch·K + ky)·K + kx` of the `[C·K·K, OH·OW]` patch matrix holds
/// tap `(ch, ky, kx)` of every output pixel, zero where it lands in the
/// padding. `out` is cleared and resized, reusing its capacity; returns
/// the `(rows, cols)` of the patch matrix.
///
/// # Errors
///
/// Returns [`ShapeError`] if `image` is not exactly `c·h·w` elements or
/// the window does not fit the padded input.
///
/// # Example
///
/// ```
/// use mp_tensor::conv::{im2col_slice_into, ConvGeometry};
///
/// # fn main() -> Result<(), mp_tensor::ShapeError> {
/// // One 2×2×2 image, 1×1 kernel: each row is one channel's pixels.
/// let image = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
/// let mut out = Vec::new();
/// let dims = im2col_slice_into(&image, 2, 2, 2, ConvGeometry::new(1, 1, 0), &mut out)?;
/// assert_eq!(dims, (2, 4));
/// assert_eq!(out, image);
/// # Ok(())
/// # }
/// ```
pub fn im2col_slice_into(
    image: &[f32],
    c: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
    out: &mut Vec<f32>,
) -> Result<(usize, usize), ShapeError> {
    let want = [h, w].iter().try_fold(c, |len, &d| len.checked_mul(d));
    if want != Some(image.len()) {
        return Err(ShapeError::new(
            "im2col",
            format!("expected {c}×{h}×{w} elements, got {}", image.len()),
        ));
    }
    let oh = geom.output_dim(h);
    let ow = geom.output_dim(w);
    if oh == 0 || ow == 0 {
        return Err(ShapeError::new(
            "im2col",
            format!(
                "kernel {0}×{0} stride {1} does not fit {h}×{w} input with padding {2}",
                geom.kernel, geom.stride, geom.padding
            ),
        ));
    }
    let (k, stride, pad) = (geom.kernel, geom.stride, geom.padding);
    let pixels = oh * ow;
    let rows = c * k * k;
    out.clear();
    out.resize(rows * pixels, 0.0);
    for (row, dst_row) in out.chunks_exact_mut(pixels).enumerate() {
        let (ch, ky, kx) = (row / (k * k), row / k % k, row % k);
        let (oy_lo, oy_hi) = in_bounds(ky, geom, h, oh);
        let (ox_lo, ox_hi) = in_bounds(kx, geom, w, ow);
        if ox_lo == ox_hi {
            continue;
        }
        // First source column of the in-bounds run; zeros stay around it.
        let x0 = ox_lo * stride + kx - pad;
        let plane = &image[ch * h * w..][..h * w];
        for oy in oy_lo..oy_hi {
            let src = &plane[(oy * stride + ky - pad) * w..][..w];
            let dst = &mut dst_row[oy * ow + ox_lo..oy * ow + ox_hi];
            if stride == 1 {
                dst.copy_from_slice(&src[x0..x0 + dst.len()]);
            } else {
                for (d, &v) in dst.iter_mut().zip(src[x0..].iter().step_by(stride)) {
                    *d = v;
                }
            }
        }
    }
    Ok((rows, pixels))
}

/// The outputs `o` in `0..out_len` whose tap `o·stride + offset − padding`
/// lands inside `0..len`, as a (possibly empty) range `lo..hi`.
fn in_bounds(offset: usize, geom: ConvGeometry, len: usize, out_len: usize) -> (usize, usize) {
    let lo = geom.padding.saturating_sub(offset).div_ceil(geom.stride);
    let hi = (len + geom.padding)
        .saturating_sub(offset)
        .div_ceil(geom.stride)
        .min(out_len);
    (lo.min(hi), hi)
}

/// Adjoint of [`im2col`]: scatters a patch-matrix gradient back to image
/// space, summing overlapping contributions.
///
/// `cols` must have shape `[C·K·K, OH·OW]` for the image geometry given by
/// `(channels, height, width)` and `geom`.
///
/// # Errors
///
/// Returns [`ShapeError`] if `cols` does not match the expected patch
/// matrix shape.
pub fn col2im(
    cols: &Tensor,
    channels: usize,
    height: usize,
    width: usize,
    geom: ConvGeometry,
) -> Result<Tensor, ShapeError> {
    let oh = geom.output_dim(height);
    let ow = geom.output_dim(width);
    let k = geom.kernel;
    let want = Shape::matrix(channels * k * k, oh * ow);
    if cols.shape() != &want {
        return Err(ShapeError::new(
            "col2im",
            format!("expected {want}, got {}", cols.shape()),
        ));
    }
    let ncols = oh * ow;
    let mut img = vec![0.0f32; channels * height * width];
    let cv = cols.as_slice();
    for ch in 0..channels {
        let plane = &mut img[ch * height * width..(ch + 1) * height * width];
        for ky in 0..k {
            for kx in 0..k {
                let row = (ch * k + ky) * k + kx;
                let col_row = &cv[row * ncols..(row + 1) * ncols];
                for oy in 0..oh {
                    let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                    if iy < 0 || iy >= height as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                        if ix < 0 || ix >= width as isize {
                            continue;
                        }
                        plane[iy as usize * width + ix as usize] += col_row[oy * ow + ox];
                    }
                }
            }
        }
    }
    Tensor::from_vec(Shape::nchw(1, channels, height, width), img)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg;

    #[test]
    fn output_dim_formula() {
        let g = ConvGeometry::new(3, 1, 0);
        assert_eq!(g.output_dim(32), 30);
        assert_eq!(g.output_dim(3), 1);
        assert_eq!(g.output_dim(2), 0);
        let p = ConvGeometry::new(3, 1, 1);
        assert_eq!(p.output_dim(32), 32);
        let s = ConvGeometry::new(2, 2, 0);
        assert_eq!(s.output_dim(8), 4);
    }

    #[test]
    fn output_dim_overflow_returns_zero() {
        // Regression: `input + 2·padding` used to wrap in release builds
        // and report a bogus output size.
        let g = ConvGeometry::new(3, 1, usize::MAX / 2 + 1);
        assert_eq!(g.output_dim(10), 0);
        let h = ConvGeometry::new(3, 1, 1);
        assert_eq!(h.output_dim(usize::MAX - 1), 0);
    }

    #[test]
    #[should_panic(expected = "kernel must be positive")]
    fn zero_kernel_panics() {
        let _ = ConvGeometry::new(0, 1, 0);
    }

    #[test]
    fn im2col_into_matches_allocating_path_and_reuses_buffer() {
        let img = Tensor::from_fn(Shape::nchw(1, 2, 5, 4), |i| (i as f32) * 0.3 - 2.0);
        let geom = ConvGeometry::new(3, 1, 1);
        let want = im2col(&img, geom).unwrap();
        let mut buf = vec![7.0f32; 3]; // stale contents must be overwritten
        let (rows, cols) = im2col_into(&img, geom, &mut buf).unwrap();
        assert_eq!((rows, cols), (want.shape().dim(0), want.shape().dim(1)));
        assert_eq!(buf.as_slice(), want.as_slice());
        let cap = buf.capacity();
        im2col_into(&img, geom, &mut buf).unwrap();
        assert_eq!(buf.capacity(), cap);

        // The slice entry point lowers straight out of a batch tensor.
        let plane = img.as_slice();
        let (r2, c2) = im2col_slice_into(plane, 2, 5, 4, geom, &mut buf).unwrap();
        assert_eq!((r2, c2), (rows, cols));
        assert_eq!(buf.as_slice(), want.as_slice());
        assert!(im2col_slice_into(&plane[1..], 2, 5, 4, geom, &mut buf).is_err());
    }

    #[test]
    fn slice_lowering_checks_its_input() {
        // The layout itself is pinned by the tier-1 property
        // `batch_lowering_matches_its_definition` in tests/props.rs.
        let geom = ConvGeometry::new(3, 1, 0);
        let mut out = vec![1.0];
        let image = vec![0.5; 2 * 4 * 4];
        assert_eq!(
            im2col_slice_into(&image, 2, 4, 4, geom, &mut out).unwrap(),
            (18, 4)
        );
        assert!(im2col_slice_into(&image[1..], 2, 4, 4, geom, &mut out).is_err());
        assert!(im2col_slice_into(&image, 1, 4, 4, geom, &mut out).is_err());
        assert!(im2col_slice_into(&image, usize::MAX, 4, 4, geom, &mut out).is_err());
        let too_big = ConvGeometry::new(5, 1, 0);
        assert!(im2col_slice_into(&image, 2, 4, 4, too_big, &mut out).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // A 1×1 kernel im2col is just a channel-row view of the image.
        let img = Tensor::from_fn(Shape::nchw(1, 2, 2, 2), |i| i as f32);
        let cols = im2col(&img, ConvGeometry::new(1, 1, 0)).unwrap();
        assert_eq!(cols.shape().dims(), &[2, 4]);
        assert_eq!(cols.as_slice(), img.as_slice());
    }

    #[test]
    fn im2col_known_3x3() {
        // 1 channel, 3×3 image, 2×2 kernel: 4 patches of 4 values.
        let img = Tensor::from_fn(Shape::nchw(1, 1, 3, 3), |i| i as f32);
        let cols = im2col(&img, ConvGeometry::new(2, 1, 0)).unwrap();
        assert_eq!(cols.shape().dims(), &[4, 4]);
        // Patch matrix row r holds kernel element r across the 4 output pixels.
        // Patches (top-left origins): (0,0),(0,1),(1,0),(1,1).
        assert_eq!(cols.as_slice()[0..4], [0.0, 1.0, 3.0, 4.0]); // k(0,0)
        assert_eq!(cols.as_slice()[4..8], [1.0, 2.0, 4.0, 5.0]); // k(0,1)
        assert_eq!(cols.as_slice()[8..12], [3.0, 4.0, 6.0, 7.0]); // k(1,0)
        assert_eq!(cols.as_slice()[12..16], [4.0, 5.0, 7.0, 8.0]); // k(1,1)
    }

    #[test]
    fn im2col_with_padding_zero_fills() {
        let img = Tensor::ones(Shape::nchw(1, 1, 2, 2));
        let cols = im2col(&img, ConvGeometry::new(3, 1, 1)).unwrap();
        assert_eq!(cols.shape().dims(), &[9, 4]);
        // Center kernel element always hits a real pixel.
        assert_eq!(cols.as_slice()[4 * 4..4 * 4 + 4], [1.0, 1.0, 1.0, 1.0]);
        // Top-left kernel element only hits a real pixel for output (1,1).
        assert_eq!(cols.as_slice()[0..4], [0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn convolution_via_matmul_matches_direct() {
        // Direct 2-D convolution vs im2col+GEMM on a small case.
        let img = Tensor::from_fn(Shape::nchw(1, 1, 4, 4), |i| (i as f32) - 7.5);
        let w = Tensor::from_vec([1, 4], vec![1.0, -1.0, 0.5, 2.0]).unwrap(); // 2×2 kernel
        let geom = ConvGeometry::new(2, 1, 0);
        let cols = im2col(&img, geom).unwrap();
        let out = linalg::matmul(&w, &cols).unwrap();
        // Direct computation at output (1, 2): window rows 1..3, cols 2..4.
        let v = |y: usize, x: usize| img.as_slice()[y * 4 + x];
        let direct = v(1, 2) - v(1, 3) + 0.5 * v(2, 2) + 2.0 * v(2, 3);
        let got = out.as_slice()[3 + 2];
        assert!((got - direct).abs() < 1e-5, "{got} vs {direct}");
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let geom = ConvGeometry::new(3, 2, 1);
        let (c, h, w) = (2, 5, 6);
        let x = Tensor::from_fn(Shape::nchw(1, c, h, w), |i| ((i * 7919) % 13) as f32 - 6.0);
        let cols = im2col(&x, geom).unwrap();
        let y = Tensor::from_fn(cols.shape().clone(), |i| ((i * 104729) % 11) as f32 - 5.0);
        let lhs: f32 = cols.iter().zip(y.iter()).map(|(&a, &b)| a * b).sum();
        let back = col2im(&y, c, h, w, geom).unwrap();
        let rhs: f32 = x.iter().zip(back.iter()).map(|(&a, &b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn errors_on_bad_inputs() {
        let img = Tensor::zeros(Shape::nchw(2, 1, 4, 4));
        assert!(im2col(&img, ConvGeometry::new(2, 1, 0)).is_err());
        let tiny = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        assert!(im2col(&tiny, ConvGeometry::new(3, 1, 0)).is_err());
        let bad_cols = Tensor::zeros([3, 3]);
        assert!(col2im(&bad_cols, 1, 4, 4, ConvGeometry::new(2, 1, 0)).is_err());
    }
}
