use mp_tensor::conv::ConvGeometry;
use mp_tensor::simd::{self, Family, Tier};
use mp_tensor::{Shape, ShapeError, Tensor, Workspace};

use crate::layer::{Layer, Mode};

fn check_nchw(input: &Shape, layer: &str) -> Result<(usize, usize, usize, usize), ShapeError> {
    if input.rank() != 4 {
        return Err(ShapeError::new(
            layer,
            format!("expected NCHW input, got {input}"),
        ));
    }
    Ok((input.dim(0), input.dim(1), input.dim(2), input.dim(3)))
}

/// 2-D max pooling.
///
/// # Example
///
/// ```
/// use mp_nn::{layers::MaxPool2d, Layer, Mode};
/// use mp_tensor::{Shape, Tensor};
///
/// # fn main() -> Result<(), mp_tensor::ShapeError> {
/// let mut pool = MaxPool2d::new(2, 2)?;
/// let x = Tensor::from_fn(Shape::nchw(1, 1, 4, 4), |i| i as f32);
/// let y = pool.forward(&x, Mode::Infer)?;
/// assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
/// assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MaxPool2d {
    geom: ConvGeometry,
    // For each output element, the linear index of its argmax in the input.
    cached_argmax: Option<(Shape, Vec<usize>)>,
}

impl MaxPool2d {
    /// Creates a pooling layer with a square `kernel` and `stride`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize) -> Result<Self, ShapeError> {
        if kernel == 0 || stride == 0 {
            return Err(ShapeError::new(
                "MaxPool2d::new",
                "kernel and stride must be positive",
            ));
        }
        Ok(Self {
            geom: ConvGeometry::new(kernel, stride, 0),
            cached_argmax: None,
        })
    }

    /// The pooling geometry.
    pub fn geometry(&self) -> ConvGeometry {
        self.geom
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> String {
        format!("maxpool{0}x{0}", self.geom.kernel)
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, ShapeError> {
        let (n, c, h, w) = check_nchw(input, "MaxPool2d")?;
        let oh = self.geom.output_dim(h);
        let ow = self.geom.output_dim(w);
        if oh == 0 || ow == 0 {
            return Err(ShapeError::new(
                "MaxPool2d",
                format!("window does not fit input {input}"),
            ));
        }
        Ok(Shape::nchw(n, c, oh, ow))
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, ShapeError> {
        let out_shape = self.output_shape(input.shape())?;
        let (n, c, h, w) = check_nchw(input.shape(), "MaxPool2d")?;
        let (oh, ow) = (out_shape.dim(2), out_shape.dim(3));
        let k = self.geom.kernel;
        let s = self.geom.stride;
        let mut out = vec![0.0f32; out_shape.len()];
        let mut argmax = vec![0usize; out_shape.len()];
        let xv = input.as_slice();
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * h * w;
                let obase = (img * c + ch) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for ky in 0..k {
                            for kx in 0..k {
                                let idx = base + (oy * s + ky) * w + (ox * s + kx);
                                if xv[idx] > best {
                                    best = xv[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        out[obase + oy * ow + ox] = best;
                        argmax[obase + oy * ow + ox] = best_idx;
                    }
                }
            }
        }
        if mode.is_train() {
            self.cached_argmax = Some((input.shape().clone(), argmax));
        }
        Tensor::from_vec(out_shape, out)
    }

    /// [`simd::max_pool`] over every plane: the same taps in the same
    /// `(ky, kx)` order and the same `v > best` update as `forward`, at
    /// register width on AVX-512F or AVX2.
    fn infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, ShapeError> {
        let out_shape = self.output_shape(input.shape())?;
        let (_, _, h, w) = check_nchw(input.shape(), "MaxPool2d")?;
        let mut out = ws.take(out_shape.len());
        out.clear();
        out.resize(out_shape.len(), 0.0);
        simd::max_pool(
            Tier::detected(Family::Gemm),
            input.as_slice(),
            (h, w),
            (self.geom.kernel, self.geom.stride),
            &mut out,
        );
        Tensor::from_vec(out_shape, out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, ShapeError> {
        let (in_shape, argmax) = self.cached_argmax.take().ok_or_else(|| {
            ShapeError::new(
                "MaxPool2d",
                "backward called without a preceding training-mode forward",
            )
        })?;
        if grad_output.len() != argmax.len() {
            return Err(ShapeError::new(
                "MaxPool2d",
                format!(
                    "gradient has {} elements, expected {}",
                    grad_output.len(),
                    argmax.len()
                ),
            ));
        }
        let mut grad_in = Tensor::zeros(in_shape);
        for (&g, &idx) in grad_output.iter().zip(&argmax) {
            grad_in.as_mut_slice()[idx] += g;
        }
        Ok(grad_in)
    }
}

/// 2-D average pooling.
#[derive(Debug)]
pub struct AvgPool2d {
    geom: ConvGeometry,
    cached_input_shape: Option<Shape>,
}

impl AvgPool2d {
    /// Creates an average pooling layer with a square `kernel` and `stride`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize) -> Result<Self, ShapeError> {
        if kernel == 0 || stride == 0 {
            return Err(ShapeError::new(
                "AvgPool2d::new",
                "kernel and stride must be positive",
            ));
        }
        Ok(Self {
            geom: ConvGeometry::new(kernel, stride, 0),
            cached_input_shape: None,
        })
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> String {
        format!("avgpool{0}x{0}", self.geom.kernel)
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, ShapeError> {
        let (n, c, h, w) = check_nchw(input, "AvgPool2d")?;
        let oh = self.geom.output_dim(h);
        let ow = self.geom.output_dim(w);
        if oh == 0 || ow == 0 {
            return Err(ShapeError::new(
                "AvgPool2d",
                format!("window does not fit input {input}"),
            ));
        }
        Ok(Shape::nchw(n, c, oh, ow))
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, ShapeError> {
        let out_shape = self.output_shape(input.shape())?;
        let (n, c, h, w) = check_nchw(input.shape(), "AvgPool2d")?;
        let (oh, ow) = (out_shape.dim(2), out_shape.dim(3));
        let k = self.geom.kernel;
        let s = self.geom.stride;
        let norm = 1.0 / (k * k) as f32;
        let mut out = vec![0.0f32; out_shape.len()];
        let xv = input.as_slice();
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * h * w;
                let obase = (img * c + ch) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ky in 0..k {
                            for kx in 0..k {
                                acc += xv[base + (oy * s + ky) * w + (ox * s + kx)];
                            }
                        }
                        out[obase + oy * ow + ox] = acc * norm;
                    }
                }
            }
        }
        if mode.is_train() {
            self.cached_input_shape = Some(input.shape().clone());
        }
        Tensor::from_vec(out_shape, out)
    }

    fn infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, ShapeError> {
        let out_shape = self.output_shape(input.shape())?;
        let (n, c, h, w) = check_nchw(input.shape(), "AvgPool2d")?;
        let (oh, ow) = (out_shape.dim(2), out_shape.dim(3));
        let k = self.geom.kernel;
        let s = self.geom.stride;
        let norm = 1.0 / (k * k) as f32;
        let mut out = ws.take(out_shape.len());
        out.clear();
        out.resize(out_shape.len(), 0.0);
        let xv = input.as_slice();
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * h * w;
                let obase = (img * c + ch) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ky in 0..k {
                            for kx in 0..k {
                                acc += xv[base + (oy * s + ky) * w + (ox * s + kx)];
                            }
                        }
                        out[obase + oy * ow + ox] = acc * norm;
                    }
                }
            }
        }
        Tensor::from_vec(out_shape, out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, ShapeError> {
        let in_shape = self.cached_input_shape.take().ok_or_else(|| {
            ShapeError::new(
                "AvgPool2d",
                "backward called without a preceding training-mode forward",
            )
        })?;
        let (n, c, h, w) = check_nchw(&in_shape, "AvgPool2d")?;
        let oh = self.geom.output_dim(h);
        let ow = self.geom.output_dim(w);
        let want = Shape::nchw(n, c, oh, ow);
        if grad_output.shape() != &want {
            return Err(ShapeError::new(
                "AvgPool2d",
                format!("expected grad {want}, got {}", grad_output.shape()),
            ));
        }
        let k = self.geom.kernel;
        let s = self.geom.stride;
        let norm = 1.0 / (k * k) as f32;
        let mut grad_in = Tensor::zeros(in_shape);
        let gv = grad_output.as_slice();
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * h * w;
                let obase = (img * c + ch) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = gv[obase + oy * ow + ox] * norm;
                        for ky in 0..k {
                            for kx in 0..k {
                                grad_in.as_mut_slice()[base + (oy * s + ky) * w + (ox * s + kx)] +=
                                    g;
                            }
                        }
                    }
                }
            }
        }
        Ok(grad_in)
    }
}

/// Global average pooling: `[N, C, H, W] → [N, C]`.
///
/// Used by the paper's Models B and C, which end in a pooling layer that
/// reduces the final `1×1-conv-10` feature maps to class scores.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    cached_input_shape: Option<Shape>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> String {
        "global-avgpool".to_owned()
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, ShapeError> {
        let (n, c, _, _) = check_nchw(input, "GlobalAvgPool")?;
        Ok(Shape::matrix(n, c))
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, ShapeError> {
        let (n, c, h, w) = check_nchw(input.shape(), "GlobalAvgPool")?;
        let plane = h * w;
        let norm = 1.0 / plane as f32;
        let mut out = vec![0.0f32; n * c];
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * plane;
                out[img * c + ch] = input.as_slice()[base..base + plane].iter().sum::<f32>() * norm;
            }
        }
        if mode.is_train() {
            self.cached_input_shape = Some(input.shape().clone());
        }
        Tensor::from_vec(Shape::matrix(n, c), out)
    }

    fn infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, ShapeError> {
        let (n, c, h, w) = check_nchw(input.shape(), "GlobalAvgPool")?;
        let plane = h * w;
        let norm = 1.0 / plane as f32;
        let mut out = ws.take(n * c);
        out.clear();
        out.resize(n * c, 0.0);
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * plane;
                out[img * c + ch] = input.as_slice()[base..base + plane].iter().sum::<f32>() * norm;
            }
        }
        Tensor::from_vec(Shape::matrix(n, c), out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, ShapeError> {
        let in_shape = self.cached_input_shape.take().ok_or_else(|| {
            ShapeError::new(
                "GlobalAvgPool",
                "backward called without a preceding training-mode forward",
            )
        })?;
        let (n, c, h, w) = check_nchw(&in_shape, "GlobalAvgPool")?;
        if grad_output.shape() != &Shape::matrix(n, c) {
            return Err(ShapeError::new(
                "GlobalAvgPool",
                format!("expected grad [{n}×{c}], got {}", grad_output.shape()),
            ));
        }
        let plane = h * w;
        let norm = 1.0 / plane as f32;
        let mut grad_in = Tensor::zeros(in_shape);
        for img in 0..n {
            for ch in 0..c {
                let g = grad_output.as_slice()[img * c + ch] * norm;
                let base = (img * c + ch) * plane;
                for v in &mut grad_in.as_mut_slice()[base..base + plane] {
                    *v = g;
                }
            }
        }
        Ok(grad_in)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_window_maxima() {
        let mut pool = MaxPool2d::new(2, 2).unwrap();
        let x = Tensor::from_fn(Shape::nchw(1, 1, 4, 4), |i| i as f32);
        let y = pool.forward(&x, Mode::Infer).unwrap();
        assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn maxpool_overlapping_windows() {
        let mut pool = MaxPool2d::new(3, 2).unwrap();
        let x = Tensor::from_fn(Shape::nchw(1, 1, 5, 5), |i| i as f32);
        let y = pool.forward(&x, Mode::Infer).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[12.0, 14.0, 22.0, 24.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(2, 2).unwrap();
        let x = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0, 9.0, 3.0, 4.0]).unwrap();
        pool.forward(&x, Mode::Train).unwrap();
        let dx = pool
            .backward(&Tensor::from_vec(Shape::nchw(1, 1, 1, 1), vec![5.0]).unwrap())
            .unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn avgpool_means_windows() {
        let mut pool = AvgPool2d::new(2, 2).unwrap();
        let x = Tensor::from_fn(Shape::nchw(1, 1, 2, 2), |i| i as f32);
        let y = pool.forward(&x, Mode::Infer).unwrap();
        assert_eq!(y.as_slice(), &[1.5]);
    }

    #[test]
    fn avgpool_backward_distributes_evenly() {
        let mut pool = AvgPool2d::new(2, 2).unwrap();
        let x = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        pool.forward(&x, Mode::Train).unwrap();
        let dx = pool
            .backward(&Tensor::from_vec(Shape::nchw(1, 1, 1, 1), vec![4.0]).unwrap())
            .unwrap();
        assert_eq!(dx.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn global_avgpool_reduces_to_nc() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_fn(Shape::nchw(2, 3, 2, 2), |i| i as f32);
        let y = pool.forward(&x, Mode::Infer).unwrap();
        assert_eq!(y.shape().dims(), &[2, 3]);
        assert_eq!(y.as_slice()[0], 1.5); // mean of 0..=3
        assert_eq!(y.as_slice()[3], 13.5); // mean of 12..=15
    }

    #[test]
    fn global_avgpool_gradient_is_uniform() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        pool.forward(&x, Mode::Train).unwrap();
        let dx = pool
            .backward(&Tensor::from_vec([1, 1], vec![8.0]).unwrap())
            .unwrap();
        assert_eq!(dx.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn errors_on_bad_shapes() {
        let mut pool = MaxPool2d::new(2, 2).unwrap();
        assert!(pool.forward(&Tensor::zeros([4, 4]), Mode::Infer).is_err());
        assert!(pool
            .forward(&Tensor::zeros(Shape::nchw(1, 1, 1, 1)), Mode::Infer)
            .is_err());
        assert!(pool
            .backward(&Tensor::zeros(Shape::nchw(1, 1, 1, 1)))
            .is_err());
        assert!(MaxPool2d::new(0, 1).is_err());
        assert!(AvgPool2d::new(2, 0).is_err());
    }
}
