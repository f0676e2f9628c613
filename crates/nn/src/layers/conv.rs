use mp_tensor::conv::{col2im, im2col, im2col_batch_into, ConvGeometry};
use mp_tensor::init::TensorRng;
use mp_tensor::{linalg, Shape, ShapeError, Tensor, Workspace};

use crate::layer::{Layer, Mode};
use crate::LayerCost;

/// 2-D convolution computed as `im2col` + GEMM.
///
/// Weights are stored as a `[out_channels, in_channels·K·K]` matrix so the
/// forward pass per image is a single matrix product over the patch
/// matrix — the same matrix–matrix lowering the FINN engines implement in
/// hardware (paper §II).
///
/// # Example
///
/// ```
/// use mp_nn::{layers::Conv2d, Layer, Mode};
/// use mp_tensor::{init::TensorRng, Shape, Tensor};
///
/// # fn main() -> Result<(), mp_tensor::ShapeError> {
/// let mut rng = TensorRng::seed_from(1);
/// let mut conv = Conv2d::new(3, 8, 3, 1, 0, &mut rng)?;
/// let x = Tensor::zeros(Shape::nchw(2, 3, 16, 16));
/// let y = conv.forward(&x, Mode::Infer)?;
/// assert_eq!(y.shape().dims(), &[2, 8, 14, 14]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    geom: ConvGeometry,
    weight: Tensor,
    bias: Tensor,
    weight_grad: Tensor,
    bias_grad: Tensor,
    cached_cols: Option<Vec<Tensor>>,
    cached_input_shape: Option<Shape>,
}

impl Conv2d {
    /// Creates a convolution with He-initialised weights and zero biases.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `in_channels` or `out_channels` is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut TensorRng,
    ) -> Result<Self, ShapeError> {
        if in_channels == 0 || out_channels == 0 {
            return Err(ShapeError::new(
                "Conv2d::new",
                "channel counts must be positive",
            ));
        }
        let geom = ConvGeometry::new(kernel, stride, padding);
        let fan_in = in_channels * kernel * kernel;
        Ok(Self {
            in_channels,
            out_channels,
            geom,
            weight: rng.he([out_channels, fan_in], fan_in),
            bias: Tensor::zeros([out_channels]),
            weight_grad: Tensor::zeros([out_channels, fan_in]),
            bias_grad: Tensor::zeros([out_channels]),
            cached_cols: None,
            cached_input_shape: None,
        })
    }

    /// The convolution geometry (kernel, stride, padding).
    pub fn geometry(&self) -> ConvGeometry {
        self.geom
    }

    /// The `[out_channels, in_channels·K·K]` weight matrix.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The `[out_channels]` bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Replaces the weight matrix (e.g. with binarised weights).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `weight` has a different shape.
    pub fn set_weight(&mut self, weight: Tensor) -> Result<(), ShapeError> {
        if weight.shape() != self.weight.shape() {
            return Err(ShapeError::new(
                "Conv2d::set_weight",
                format!("expected {}, got {}", self.weight.shape(), weight.shape()),
            ));
        }
        self.weight = weight;
        Ok(())
    }

    /// Number of input channels this layer expects.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels this layer produces.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    fn check_input(&self, input: &Shape) -> Result<(usize, usize, usize, usize), ShapeError> {
        if input.rank() != 4 || input.dim(1) != self.in_channels {
            return Err(ShapeError::new(
                "Conv2d",
                format!("expected [N,{},H,W] input, got {input}", self.in_channels),
            ));
        }
        let oh = self.geom.output_dim(input.dim(2));
        let ow = self.geom.output_dim(input.dim(3));
        if oh == 0 || ow == 0 {
            return Err(ShapeError::new(
                "Conv2d",
                format!("kernel does not fit input {input}"),
            ));
        }
        Ok((input.dim(0), input.dim(1), oh, ow))
    }
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        format!("{0}x{0}-conv-{1}", self.geom.kernel, self.out_channels)
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, ShapeError> {
        let (n, _, oh, ow) = self.check_input(input)?;
        Ok(Shape::nchw(n, self.out_channels, oh, ow))
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, ShapeError> {
        let (n, _, oh, ow) = self.check_input(input.shape())?;
        let mut out = Vec::with_capacity(n * self.out_channels * oh * ow);
        let mut cols_cache = mode.is_train().then(|| Vec::with_capacity(n));
        for img in 0..n {
            let image = input.batch_item(img)?;
            let cols = im2col(&image, self.geom)?;
            let mut y = linalg::matmul(&self.weight, &cols)?;
            let pixels = oh * ow;
            for oc in 0..self.out_channels {
                let b = self.bias.as_slice()[oc];
                for v in &mut y.as_mut_slice()[oc * pixels..(oc + 1) * pixels] {
                    *v += b;
                }
            }
            out.extend_from_slice(y.as_slice());
            if let Some(cache) = &mut cols_cache {
                cache.push(cols);
            }
        }
        if mode.is_train() {
            self.cached_cols = cols_cache;
            self.cached_input_shape = Some(input.shape().clone());
        }
        Tensor::from_vec(Shape::nchw(n, self.out_channels, oh, ow), out)
    }

    fn infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, ShapeError> {
        let (n, c, oh, ow) = self.check_input(input.shape())?;
        let (h, w) = (input.shape().dim(2), input.shape().dim(3));
        let pixels = oh * ow;
        let fan_in = c * self.geom.kernel * self.geom.kernel;
        // Batch-level GEMM: lower every image straight into one
        // `[fan_in, n·pixels]` patch matrix and multiply once. Each output
        // element accumulates over the same K entries in the same order as
        // a per-image product, so results are bit-identical while the GEMM
        // amortises its tile setup over the whole batch.
        let mut cols = ws.take(fan_in * n * pixels);
        let (rows, ncols) = im2col_batch_into(input.as_slice(), n, c, h, w, self.geom, &mut cols)?;
        let patches = Tensor::from_vec(Shape::matrix(rows, ncols), cols)?;
        let mut y = ws.take(self.out_channels * n * pixels);
        linalg::matmul_into(&self.weight, &patches, &mut y)?;
        // Reorder `[oc, n·pixels]` to `[n, oc, pixels]`, adding the bias.
        let mut out = ws.take(n * self.out_channels * pixels);
        out.clear();
        for img in 0..n {
            for oc in 0..self.out_channels {
                let b = self.bias.as_slice()[oc];
                let src = &y[oc * n * pixels + img * pixels..][..pixels];
                out.extend(src.iter().map(|&v| v + b));
            }
        }
        ws.put(patches.into_vec());
        ws.put(y);
        Tensor::from_vec(Shape::nchw(n, self.out_channels, oh, ow), out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, ShapeError> {
        let cols = self.cached_cols.take().ok_or_else(|| {
            ShapeError::new(
                "Conv2d",
                "backward called without a preceding training-mode forward",
            )
        })?;
        let in_shape = self
            .cached_input_shape
            .clone()
            .ok_or_else(|| ShapeError::new("Conv2d", "missing cached input shape"))?;
        let (n, c, h, w) = (
            in_shape.dim(0),
            in_shape.dim(1),
            in_shape.dim(2),
            in_shape.dim(3),
        );
        let oh = self.geom.output_dim(h);
        let ow = self.geom.output_dim(w);
        let want = Shape::nchw(n, self.out_channels, oh, ow);
        if grad_output.shape() != &want {
            return Err(ShapeError::new(
                "Conv2d",
                format!("expected grad {want}, got {}", grad_output.shape()),
            ));
        }
        let pixels = oh * ow;
        let mut grad_in = Vec::with_capacity(n * c * h * w);
        #[allow(clippy::needless_range_loop)] // index drives several containers
        for img in 0..n {
            let g = grad_output.batch_item(img)?;
            let g = g.into_reshaped([self.out_channels, pixels])?;
            // dW += g × colsᵀ
            let dw = linalg::matmul_transpose_b(&g, &cols[img])?;
            self.weight_grad.axpy(1.0, &dw)?;
            // db += row sums of g
            for oc in 0..self.out_channels {
                let row_sum: f32 = g.as_slice()[oc * pixels..(oc + 1) * pixels].iter().sum();
                self.bias_grad.as_mut_slice()[oc] += row_sum;
            }
            // dx = col2im(Wᵀ × g)
            let dcols = linalg::matmul_transpose_a(&self.weight, &g)?;
            let dx = col2im(&dcols, c, h, w, self.geom)?;
            grad_in.extend_from_slice(dx.as_slice());
        }
        Tensor::from_vec(in_shape, grad_in)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        visitor(&mut self.weight, &mut self.weight_grad);
        visitor(&mut self.bias, &mut self.bias_grad);
    }

    fn visit_params_ref(&self, visitor: &mut dyn FnMut(&Tensor)) {
        visitor(&self.weight);
        visitor(&self.bias);
    }

    fn zero_grads(&mut self) {
        self.weight_grad.map_inplace(|_| 0.0);
        self.bias_grad.map_inplace(|_| 0.0);
    }

    fn cost(&self, input: &Shape) -> Result<LayerCost, ShapeError> {
        let (_, _, oh, ow) = self.check_input(input)?;
        let fan_in = self.in_channels * self.geom.kernel * self.geom.kernel;
        Ok(LayerCost::new(
            (self.out_channels * fan_in * oh * ow) as u64,
            (self.out_channels * (fan_in + 1)) as u64,
            (self.out_channels * oh * ow) as u64,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TensorRng {
        TensorRng::seed_from(11)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 2, 2, 1, 0, &mut r).unwrap();
        conv.set_weight(Tensor::zeros([2, 4])).unwrap();
        conv.bias = Tensor::from_vec([2], vec![1.5, -2.0]).unwrap();
        let x = Tensor::zeros(Shape::nchw(1, 1, 3, 3));
        let y = conv.forward(&x, Mode::Infer).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2, 2, 2]);
        assert_eq!(y.as_slice()[0..4], [1.5; 4]);
        assert_eq!(y.as_slice()[4..8], [-2.0; 4]);
    }

    #[test]
    fn rejects_wrong_channels_and_small_inputs() {
        let mut r = rng();
        let mut conv = Conv2d::new(3, 4, 3, 1, 0, &mut r).unwrap();
        assert!(conv
            .forward(&Tensor::zeros(Shape::nchw(1, 2, 8, 8)), Mode::Infer)
            .is_err());
        assert!(conv
            .forward(&Tensor::zeros(Shape::nchw(1, 3, 2, 2)), Mode::Infer)
            .is_err());
        assert!(Conv2d::new(0, 1, 3, 1, 0, &mut r).is_err());
    }

    #[test]
    fn known_convolution_value() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut r).unwrap();
        conv.set_weight(Tensor::from_vec([1, 4], vec![1.0, 2.0, 3.0, 4.0]).unwrap())
            .unwrap();
        let x = Tensor::from_fn(Shape::nchw(1, 1, 2, 2), |i| i as f32);
        let y = conv.forward(&x, Mode::Infer).unwrap();
        // 1*0 + 2*1 + 3*2 + 4*3 = 20
        assert_eq!(y.as_slice(), &[20.0]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut r).unwrap();
        assert!(conv
            .backward(&Tensor::zeros(Shape::nchw(1, 1, 1, 1)))
            .is_err());
    }

    #[test]
    fn gradient_check_weights() {
        // Finite differences on a tiny conv: d(sum(y))/dw.
        let mut r = rng();
        let mut conv = Conv2d::new(2, 2, 2, 1, 0, &mut r).unwrap();
        let x = r.normal(Shape::nchw(2, 2, 3, 3), 0.0, 1.0);
        let y = conv.forward(&x, Mode::Train).unwrap();
        let ones = Tensor::ones(y.shape().clone());
        conv.backward(&ones).unwrap();
        let analytic = conv.weight_grad.clone();
        let eps = 1e-2f32;
        for idx in [0usize, 3, 5] {
            let orig = conv.weight.as_slice()[idx];
            conv.weight.as_mut_slice()[idx] = orig + eps;
            let plus = conv.forward(&x, Mode::Infer).unwrap().sum();
            conv.weight.as_mut_slice()[idx] = orig - eps;
            let minus = conv.forward(&x, Mode::Infer).unwrap().sum();
            conv.weight.as_mut_slice()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let a = analytic.as_slice()[idx];
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "dW[{idx}]: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 2, 2, 1, 0, &mut r).unwrap();
        let x = r.normal(Shape::nchw(1, 1, 3, 3), 0.0, 1.0);
        let y = conv.forward(&x, Mode::Train).unwrap();
        let dx = conv.backward(&Tensor::ones(y.shape().clone())).unwrap();
        let eps = 1e-2f32;
        for idx in [0usize, 4, 8] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let plus = conv.forward(&xp, Mode::Infer).unwrap().sum();
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let minus = conv.forward(&xm, Mode::Infer).unwrap().sum();
            let numeric = (plus - minus) / (2.0 * eps);
            let a = dx.as_slice()[idx];
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "dx[{idx}]: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn cost_matches_hand_count() {
        let mut r = rng();
        let conv = Conv2d::new(3, 64, 3, 1, 0, &mut r).unwrap();
        let cost = conv.cost(&Shape::nchw(1, 3, 32, 32)).unwrap();
        // OH=OW=30, fan_in=27: macs = 64*27*900
        assert_eq!(cost.macs, 64 * 27 * 900);
        assert_eq!(cost.params, 64 * 28);
        assert_eq!(cost.activations, 64 * 900);
    }

    #[test]
    fn zero_grads_clears_accumulation() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut r).unwrap();
        let x = r.normal(Shape::nchw(1, 1, 3, 3), 0.0, 1.0);
        let y = conv.forward(&x, Mode::Train).unwrap();
        conv.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert!(conv.weight_grad.iter().any(|&g| g != 0.0));
        conv.zero_grads();
        assert!(conv.weight_grad.iter().all(|&g| g == 0.0));
        assert!(conv.bias_grad.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn name_mentions_geometry() {
        let mut r = rng();
        let conv = Conv2d::new(3, 64, 3, 1, 0, &mut r).unwrap();
        assert_eq!(conv.name(), "3x3-conv-64");
    }
}
